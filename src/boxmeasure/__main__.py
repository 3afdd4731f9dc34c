"""python -m boxmeasure: the command line tool."""

from .dsl import main

if __name__ == "__main__":
    main()

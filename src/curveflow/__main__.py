"""``python -m curveflow ...`` runs the command-line front end, as the
``curveflow`` entry point does; from a source checkout,
``PYTHONPATH=src python -m curveflow simulate ...`` needs no install."""

import sys

from .harness import main

if __name__ == "__main__":
    sys.exit(main())

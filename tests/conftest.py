import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

# Tests that run `python -m operahedra.cli` in a child process import the
# package from src/, as pytest's own `pythonpath` setting does in-process,
# so an uninstalled checkout runs the whole suite.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)

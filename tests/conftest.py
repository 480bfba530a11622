"""Let the CLI subprocesses the tests start import the package from ``src/``.

``pythonpath`` in ``pyproject.toml`` covers the test process itself; child
interpreters only see ``PYTHONPATH``.
"""

import os

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

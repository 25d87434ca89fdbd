"""The benchmark's span list names entry points that exist.

`bench/spantrace.py` wraps each name in `SPANS` (and each counted target in
`COUNTS`) by looking it up in `wildstrat`; a renamed or deleted function would
make the traced run fail.  The file is loaded by path and left unchanged.
"""

import importlib.util
from pathlib import Path

import wildstrat.cli  # noqa: F401  (imports every wildstrat module)

SPANTRACE = Path(__file__).resolve().parent.parent / "bench" / "spantrace.py"


def _load_spantrace():
    spec = importlib.util.spec_from_file_location("bench_spantrace", SPANTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    st = _load_spantrace()
    paths = list(st.SPANS) + [target for _, target in st.COUNTS]
    assert "parab.is_nonsingular" in paths and "parab.dual_basis" in paths
    for path in paths:
        assert callable(st._resolve(path)), path

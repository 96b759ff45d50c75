"""The benchmark's tracer wraps entrobound layers by name.

``bench/tracing.py`` finds each function in ``FUNCTIONS`` and each method
in ``METHODS`` by attribute name, so a refactor that renames or drops one
leaves that layer untraced. These checks read the two tables and fail on
any name entrobound no longer provides.
"""

import importlib
import importlib.util
from pathlib import Path

from entrobound.distributions import PmfModel

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    tracing = _tracing()
    missing = [
        f"{home}.{attr}"
        for home, table in tracing.FUNCTIONS.items()
        for attr in table
        if not callable(getattr(importlib.import_module(home), attr, None))
    ]
    assert not missing, f"bench/tracing.py wraps functions entrobound lacks: {missing}"


def test_traced_methods_resolve():
    missing = [attr for attr in _tracing().METHODS if not callable(getattr(PmfModel, attr, None))]
    assert not missing, f"bench/tracing.py wraps PmfModel methods entrobound lacks: {missing}"

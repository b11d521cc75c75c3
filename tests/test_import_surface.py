"""Import surface: what a command loads, and the lazy re-export contract.

Package ``__init__`` files resolve their re-exported names on first use
(:mod:`repro._lazy`), and ``engine="auto"`` keeps graphs below the bulk
crossover on the event engine.  Together they let a small CLI call load
only the modules it runs.  These tests check module sets, not times, so
they are deterministic.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

SUBPACKAGES = sorted(
    info.name
    for info in pkgutil.iter_modules(repro.__path__, "repro.")
    if info.ispkg
)

#: Every package whose ``__init__`` only re-exports names.
#: ``repro.protocols`` is the exception: importing it registers the
#: built-in protocols.
LAZY_PACKAGES = ["repro"] + [p for p in SUBPACKAGES if p != "repro.protocols"]

#: Modules a clean ``repro bc`` on a small graph must not load.
UNUSED_BY_SMALL_BC = (
    "numpy",
    "repro.engines.bulk",
    "repro.faults",
    "repro.shard.checkpoint",
    "repro.shard.supervisor",
    "repro.shard.frames",
    "repro.shard.runtime",
    "repro.analysis.runner",
    "repro.obs",
    "repro.lowerbound",
    "repro.congest.trace",
    "repro.congest.primitives",
)


def _fresh_modules(code):
    """``sys.modules`` of a fresh interpreter after running ``code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    code += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.strip().splitlines()[-1]))


def _cli_modules(*argv):
    """Modules loaded by ``python -m repro <argv>`` in a fresh process."""
    return _fresh_modules(
        "import runpy, sys\n"
        "sys.argv = ['repro'] + {!r}\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__')\n"
        "except SystemExit as exit:\n"
        "    assert not exit.code, exit.code\n".format(list(argv))
    )


def _loaded(modules, prefix):
    """``prefix`` and its submodules, as far as ``modules`` holds them."""
    return sorted(
        m for m in modules if m == prefix or m.startswith(prefix + ".")
    )


def test_import_repro_loads_no_subpackage():
    modules = _fresh_modules("import repro")
    assert sorted(modules.intersection(SUBPACKAGES)) == []


def test_small_bc_loads_only_what_it_runs():
    modules = _cli_modules("bc", "--graph", "cycle:8")
    unused = [m for p in UNUSED_BY_SMALL_BC for m in _loaded(modules, p)]
    assert unused == []
    assert "repro.congest.kernel" in modules


def test_bc_above_crossover_loads_bulk():
    pytest.importorskip("numpy")
    modules = _cli_modules("bc", "--graph", "karate")
    assert {"numpy", "repro.engines.bulk"} <= modules


def test_fresh_process_decodes_frames_it_never_built():
    """A frame read from disk decodes before its class is imported."""
    from repro.congest.primitives import Wave
    from repro.wire import TreeWave, WireFormat, encode_frame

    wire = WireFormat(8)
    word, bits = encode_frame([TreeWave(2), Wave(5, 1)], wire)
    modules = _fresh_modules(
        "from repro.wire import WireFormat, decode_frame\n"
        "frame = decode_frame({}, {}, WireFormat(8))\n"
        "assert [type(m).__name__ for m in frame] == ['TreeWave', 'Wave']\n"
        .format(word, bits)
    )
    assert "repro.congest.primitives" in modules


def _defined_in_a_module(name, value):
    """True if a non-package ``repro`` module binds ``name`` to ``value``."""
    module = getattr(value, "__module__", None)
    if isinstance(module, str) and module.startswith("repro."):
        candidates = [sys.modules[module]]
    else:  # a constant carries no __module__: any plain module may hold it
        candidates = [
            mod for mod_name, mod in list(sys.modules.items())
            if mod_name.startswith("repro.") and not hasattr(mod, "__path__")
        ]
    return any(getattr(mod, name, None) is value for mod in candidates)


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_exports_contract(package):
    pkg = importlib.import_module(package)
    assert len(set(pkg.__all__)) == len(pkg.__all__)
    for name in pkg.__all__:
        if name != "__version__":
            assert _defined_in_a_module(name, getattr(pkg, name)), name
    assert set(pkg.__all__) <= set(dir(pkg))
    namespace = {}
    exec("from {} import *".format(package), namespace)
    assert set(pkg.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match=package.replace(".", r"\.")):
        getattr(pkg, "no_such_name")

"""The benchmark's tracer against the live package: every name its default
hooks rebind resolves, and uninstall puts each original back.

The tracer fails a traced run with an AttributeError on a hooked name that
a refactor removed, so this is checked here, with the tier-1 tests, and
not only when the benchmark runs.
"""

import importlib.util
import sys
from pathlib import Path

_path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracer", _path)
tracer = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = tracer   # its dataclasses look their module up there
_spec.loader.exec_module(tracer)


def _name(hook):
    return f"{getattr(hook.owner, '__qualname__', hook.owner.__name__)}.{hook.attr}"


def test_every_hooked_name_resolves():
    missing = [_name(h) for h in tracer.default_hooks() if not hasattr(h.owner, h.attr)]
    assert missing == []


def test_install_wraps_and_uninstall_restores_every_hooked_name():
    hooks = tracer.default_hooks()
    originals = [(h.owner, h.attr, getattr(h.owner, h.attr), vars(h.owner).get(h.attr))
                 for h in hooks]
    t = tracer.Tracer(hooks)
    t.install()
    try:
        for owner, attr, fn, _ in originals:
            assert getattr(owner, attr).__wrapped__ is fn, f"{owner}.{attr}"
    finally:
        t.uninstall()
    for owner, attr, _, own in originals:
        assert vars(owner).get(attr) is own, f"{owner}.{attr}"

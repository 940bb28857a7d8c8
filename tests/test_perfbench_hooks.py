"""The benchmark against the live package: every name the tracer's
default hooks rebind resolves, uninstall puts each original back, and one
full-size deform-fp pass on each of ten seeds passes every check and
gives the recorded digest.

The tracer fails a traced run with an AttributeError on a hooked name that
a refactor removed, and a deform-fp trial that fails on one seed fails
every benchmark run on it, so both are checked here, with the tier-1
tests, and not only when the benchmark runs.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    # perfbench's own file, by path; registered in sys.modules, where its
    # dataclasses look their module up
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
_path = list(sys.path)
worker, workloads = _load("worker"), _load("workloads")
sys.path[:] = _path   # worker puts perfbench/ and src/ first


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


@pytest.mark.parametrize("seed", range(1, 11))
def test_a_full_deform_fp_pass_passes_its_checks(seed):
    # worker.run_phase with no time to fill stops after one pass: the 35
    # classes' trials, each checked, and the pass digest
    recorded = json.loads((PERFBENCH / "digests.json").read_text())["full"]["deform-fp"]
    phase = worker.run_phase(workloads.build("deform-fp", seed, "full", None), 0, 1, 0, recorded)
    assert (phase.attempted, phase.failed, phase.digests) == (36, 0, [recorded])

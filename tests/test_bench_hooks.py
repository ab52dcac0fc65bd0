"""The benchmark's per-layer tracer finds every szdl name it hooks.

``bench/spans.py`` swaps module attributes of szdl for timing wrappers.  A
renamed or deleted hook site only shows when the benchmark runs, so this
installs the tracer, checks what it replaced and removes it again.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import spans  # noqa: E402

HOOK_SITES = 32


def test_tracer_installs_and_restores_every_hook():
    tracer = spans.Tracer()
    try:
        tracer.install()
        patched = list(tracer._patched)
        assert len(patched) == HOOK_SITES
        for owner, attr, original in patched:
            assert original.__module__.startswith("szdl."), (owner, attr)
            assert getattr(owner, attr) is not original, (owner, attr)
    finally:
        tracer.remove()
    assert not tracer.installed
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, (owner, attr)

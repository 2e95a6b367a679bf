"""The benchmark tracer (``perfbench/tracing.py``) must find and restore every
function it wraps, so a module that stops importing one fails here rather
than in a traced benchmark run."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_and_uninstall_restore_every_attribute():
    tracing = _load_tracing()
    sites = [(owner, attr) for _, owners, _ in tracing._TARGETS for owner, attr in owners]
    originals = [owner.__dict__[attr] for owner, attr in sites]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert all(owner.__dict__[attr] is not original
                   for (owner, attr), original in zip(sites, originals))
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is original
               for (owner, attr), original in zip(sites, originals))

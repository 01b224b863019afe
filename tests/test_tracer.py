"""The benchmark's per-layer tracer still finds every name it wraps.

``bench/tracer.py`` wraps package functions and methods by name, so renaming
or removing one of them breaks ``bench/run.py --trace 1``.  Installing the
tracer here turns that into a test failure.
"""

import importlib
import importlib.util
from pathlib import Path

from blowdown import bundled

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _wrapped(module):
    """(owner, attribute) of every name the tracer wraps."""
    names = [(m, a) for m, a, _ in module.SPANS + module.COUNTS] + [module.FAMILY]
    for mod_name, attr in names:
        owner = importlib.import_module(f"blowdown.{mod_name}")
        if "." in attr:
            cls, attr = attr.split(".")
            owner = getattr(owner, cls)
        yield owner, attr


def test_install_trace_restore(capsys):
    module = _tracer_module()
    cli = importlib.import_module("blowdown.cli")
    before = {(id(owner), attr): getattr(owner, attr) for owner, attr in _wrapped(module)}
    tracer = module.Tracer()
    try:
        tracer.install()
        assert cli.main(["verify", str(bundled.path("cover_b2plus3")), "--format", "json"]) == 0
    finally:
        tracer.restore()
    capsys.readouterr()
    for owner, attr in _wrapped(module):
        assert getattr(owner, attr) is before[(id(owner), attr)], attr
    layers = tracer.per_layer(1)
    assert layers["scenario.parse_ms"] > 0
    assert layers["configuration.find_chains_calls"] == 1  # the base; the cover lifts its chains
    assert layers["configuration.blow_up_calls"] == 36  # 12 base steps, 24 cover steps

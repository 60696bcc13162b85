"""The benchmark's tracer wraps lstag functions by name; it must find each one and put it back.

`perfbench/tracing.py` is loaded from its file, unchanged, so a traced
function that is renamed or removed fails here on every Python version.
"""

import importlib.util
import pathlib
import sys

import lstag
import lstag.cli  # noqa: F401  (the tracer patches every lstag module, the CLI too)

REPO = pathlib.Path(__file__).resolve().parent.parent


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", REPO / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def attributes() -> dict:
    """Every attribute of every lstag module and of every class the package defines, by owner and name."""
    owners = [m for name, m in sorted(sys.modules.items()) if name == "lstag" or name.startswith("lstag.")]
    owners += [
        v for m in list(owners) for v in vars(m).values()
        if isinstance(v, type) and v.__module__.startswith("lstag")
    ]
    return {(id(owner), attr): value for owner in owners for attr, value in vars(owner).items()}


def test_tracer_install_patches_and_uninstall_restores_every_attribute():
    tracer = load_tracing().Tracer()
    before = attributes()
    try:
        tracer.install()
        installed = attributes()
    finally:
        tracer.uninstall()
    after = attributes()
    patched = {key for key, value in installed.items() if before.get(key) is not value}
    assert patched, "the tracer patched nothing"
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []

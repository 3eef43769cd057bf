"""File systems reach PM only through ``PMDevice.read`` / ``write``.

The checker's recovery memo (``repro.core.recovery_memo``) keys a whole
check on the ``(addr, ±len)`` trace those two methods record, and the
recovered-outcome cache keys it on the device image — both sound only
while no file system reads or writes the device behind the trace.  This
guard walks the syntax of every module under ``repro/fs`` and rejects any
attribute access to the device's internals.
"""

import ast
import pathlib

import pytest

import repro.fs

#: ``PMDevice`` state a file system must never touch directly.
INTERNALS = {"image", "_undo", "_trace"}

FS_ROOT = pathlib.Path(repro.fs.__file__).parent
MODULES = sorted(FS_ROOT.rglob("*.py"))


def internal_accesses(source: str):
    """``(line, name)`` of every ``x.image`` / ``x._undo`` / ``x._trace``
    and every ``getattr(x, "image")``-style lookup in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in INTERNALS:
            found.append((node.lineno, node.attr))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "setattr")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value in INTERNALS
        ):
            found.append((node.lineno, node.args[1].value))
    return found


def test_the_guard_sees_an_access():
    assert internal_accesses("dev.image[0:8]") == [(1, "image")]
    assert internal_accesses("getattr(self.device, '_trace')") == [
        (1, "_trace")
    ]
    assert internal_accesses("self.device.read(0, 8)") == []


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(p.relative_to(FS_ROOT)) for p in MODULES]
)
def test_no_fs_module_touches_device_internals(path):
    assert MODULES
    assert internal_accesses(path.read_text(encoding="utf-8")) == []

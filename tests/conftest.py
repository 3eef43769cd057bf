"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json

import pytest

from repro.analysis.reporting import CampaignSummary
from repro.core.checker import CheckMemo
from repro.core.replayer import CrashState
from repro.fs.bugs import BugConfig
from repro.fs.registry import FS_CLASSES
from repro.pm.device import PMDevice
from repro.pm.image import CrashImage, fence_base

#: Device size used throughout the tests: small enough to be fast, large
#: enough for every geometry.
TEST_DEVICE_SIZE = 256 * 1024

STRONG_FS = ["nova", "nova-fortis", "pmfs", "winefs", "splitfs"]
WEAK_FS = ["ext4-dax", "xfs-dax"]
ALL_FS = STRONG_FS + WEAK_FS


@pytest.fixture
def device() -> PMDevice:
    return PMDevice(TEST_DEVICE_SIZE)


@pytest.fixture(params=ALL_FS)
def fs_name(request) -> str:
    return request.param


@pytest.fixture(params=STRONG_FS)
def strong_fs_name(request) -> str:
    return request.param


def make_fixed_fs(name: str, size: int = TEST_DEVICE_SIZE):
    """A freshly formatted, bug-free instance of the named file system."""
    cls = FS_CLASSES()[name]
    return cls.mkfs(PMDevice(size), bugs=BugConfig.fixed())


@pytest.fixture
def fs(fs_name):
    return make_fixed_fs(fs_name)


@pytest.fixture
def strong_fs(strong_fs_name):
    return make_fixed_fs(strong_fs_name)


def remount(fs):
    """Remount the file system on its current device image."""
    return type(fs).mount(fs.device, bugs=fs.bugcfg)


def hand_built_state(flat: bytes, like=None, **fields) -> CrashState:
    """A crash state holding the flat image ``flat``.

    The image is ``CrashImage(fence_base(flat))``: a fresh buffer, and so
    a fresh mount device, per state.  The other fields are copied from
    ``like`` (an enumerated state) or default to a crash before the first
    syscall; ``fields`` override either.
    """
    image = CrashImage(fence_base(flat))
    if like is not None:
        return dataclasses.replace(like, image=image, **fields)
    defaults = dict(
        fence_index=0, syscall=None, syscall_name=None, mid_syscall=False,
        after_syscall=-1, subset_desc=("<test>",), n_replayed=0,
    )
    return CrashState(image=image, **{**defaults, **fields})


class EagerCheckMemo(CheckMemo):
    """The memo-equivalence reference: every state materialized and keyed
    by ``sha1(state.image.materialize())`` — eager whole-image dedup,
    against which the canonical delta key of :class:`CheckMemo` is held."""

    def key_of(self, state):
        digest = hashlib.sha1(state.image.materialize()).digest()
        return (digest, state.syscall, state.mid_syscall, state.after_syscall)


@contextlib.contextmanager
def eager_memo():
    """Workloads tested inside check through :class:`EagerCheckMemo`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("repro.core.harness.CheckMemo", EagerCheckMemo)
        yield


def serial_bugs_json(spec) -> bytes:
    """``bugs.json`` of a serial in-process run of ``spec``'s ACE slice."""
    chipmunk = spec.build_chipmunk()
    summary = CampaignSummary(fs_name=spec.fs, generator=spec.generator)
    for w in spec.ace_workloads():
        summary.add_result(chipmunk.test_workload(w.core, setup=w.setup))
    return json.dumps(
        {"reports": [c.exemplar.to_dict() for c in summary.clusters]},
        sort_keys=True,
    ).encode()

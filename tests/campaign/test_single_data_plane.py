"""One crash-image data plane: no numpy, and old campaign directories load.

The package needs nothing outside the standard library to run a campaign,
and it does not import numpy when it is installed.  Campaign directories
written while an ``image_backend`` option existed carry that key in the
journal's stored spec and in every result; they must still resume and
still be read by ``repro watch``, ``coverage`` and ``diff``.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.__main__ import main
from repro.campaign import CampaignEngine, CampaignSpec, EngineConfig
from repro.core import harness

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

CAMPAIGN = """
import itertools, sys
{prelude}
from repro.campaign import CampaignSpec
from repro.workloads import ace

spec = CampaignSpec(fs="nova", seq=1, max_workloads=10)
chipmunk = spec.build_chipmunk()
buggy = 0
for w in itertools.islice(ace.generate(1, mode=spec.mode), 10):
    buggy += chipmunk.test_workload(w.core, setup=w.setup).buggy
assert buggy > 0, "the NOVA catalogue should report on seq-1"
{epilogue}
"""


def run_campaign_script(prelude="", epilogue=""):
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    script = CAMPAIGN.format(prelude=prelude, epilogue=epilogue)
    done = subprocess.run([sys.executable, "-c", script], cwd=REPO_ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr


class TestNumpyFree:
    def test_campaign_runs_with_numpy_unimportable(self):
        run_campaign_script(prelude='sys.modules["numpy"] = None')

    def test_campaign_does_not_import_numpy(self):
        run_campaign_script(
            epilogue='assert "numpy" not in sys.modules, "numpy was imported"'
        )


def stamp_backend(campaign_dir, backend, keep_items):
    """Rewrite the journal as an older build would have written it, with
    only the first ``keep_items`` items done."""
    path = os.path.join(campaign_dir, "journal.jsonl")
    kept = []
    for line in open(path):
        record = json.loads(line)
        if record["type"] == "campaign_done":
            continue
        if record["type"] == "campaign_meta":
            record["spec"]["image_backend"] = backend
        if record["type"] == "item_done":
            if record["ordinal"] >= keep_items:
                continue
            for result in record["results"]:
                result["image_backend"] = backend
        kept.append(json.dumps(record))
    with open(path, "w") as fh:
        fh.write("\n".join(kept) + "\n")


@pytest.mark.parametrize("backend", ["python", "numpy"])
class TestOldCampaignDirectories:
    def test_from_dict_ignores_the_stale_key(self, backend):
        spec = CampaignSpec(fs="nova", seq=1, max_workloads=6)
        assert CampaignSpec.from_dict(
            {**spec.to_dict(), "image_backend": backend}) == spec
        result = harness.TestResult(
            workload_desc="w", reports=[], clusters=[], n_crash_states=0,
            n_unique_states=0, n_fences=0, log_length=0, inflight={},
            elapsed=0.0,
        )
        data = {**result.to_dict(), "image_backend": backend}
        back = harness.TestResult.from_dict(data)
        assert back.image_backend == harness.IMAGE_BACKEND

    def test_resume_watch_coverage_and_diff(self, backend, tmp_path, capsys):
        spec = CampaignSpec(fs="nova", seq=1, max_workloads=6)
        config = EngineConfig(workers=2, batch_size=2)
        fresh, old = str(tmp_path / "fresh"), str(tmp_path / "old")
        CampaignEngine(spec, fresh, config).run()
        CampaignEngine(spec, old, config).run()
        stamp_backend(old, backend, keep_items=3)

        merged = CampaignEngine(spec, old, config, resume=True).run()
        assert merged.engine["items_resumed"] == 3
        assert merged.summary.workloads_tested == 6

        capsys.readouterr()
        assert main(["watch", "--once", old]) == 0
        assert main(["coverage", old]) == 0
        assert main(["diff", "--strict", fresh, old]) == 0
        assert "0 appeared, 0 disappeared" in capsys.readouterr().out

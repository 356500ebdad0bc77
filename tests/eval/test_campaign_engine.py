"""Trial isolation, parallel determinism and resume of the SFI engine."""
import json

import pytest

from repro.eval import (
    CampaignResult,
    Harness,
    campaign_profiles,
    figure9,
    prepare,
    run_campaign,
)
from repro.eval.campaign_engine import run_campaigns
from repro.eval.fault_campaign import campaign_context, run_trial_block
from repro.runtime import Outcome
from repro.workloads import get_workload

SCALE = 0.35
TRIALS = 10


def campaign_fingerprint(c: CampaignResult):
    return (
        c.workload, c.scheme, c.trials, dict(c.tallies), c.detected,
        c.false_negatives, c.caught, dict(c.fn_by_outcome), c.region_steps,
    )


@pytest.fixture(scope="module")
def conv1d():
    return get_workload("conv1d")


@pytest.fixture(scope="module")
def conv1d_profiles(conv1d):
    return Harness(conv1d, scale=SCALE, timing=False).profiles_for(1.0)


class TestTrialIsolation:
    @pytest.mark.parametrize("backend", ["ref", "batch"])
    def test_reused_prepared_program_matches_fresh(
            self, conv1d, conv1d_profiles, backend):
        """Back-to-back trial blocks on one PreparedProgram tally exactly
        like a block on a freshly built program: no predictor state leaks
        (the golden/counting runs and every trial reset the runtime)."""
        inp = conv1d.test_inputs(1, seed=17, scale=SCALE)[0]

        def block(prepared):
            ctx = campaign_context(prepared, conv1d, inp)
            return run_trial_block(
                prepared, conv1d, inp, ctx, "AR100", 0, 0, TRIALS,
                backend=backend,
            )

        prepared = prepare(conv1d, "AR100", profiles=conv1d_profiles)
        first = block(prepared)
        second = block(prepared)
        fresh = block(prepare(conv1d, "AR100", profiles=conv1d_profiles))
        assert campaign_fingerprint(first) == campaign_fingerprint(second)
        assert campaign_fingerprint(first) == campaign_fingerprint(fresh)

    def test_caught_comes_from_per_trial_delta(self, conv1d, conv1d_profiles):
        campaign = run_campaign(
            conv1d, "AR100", TRIALS, scale=SCALE, profiles=conv1d_profiles
        )
        assert 0 <= campaign.caught <= TRIALS


class TestParallelDeterminism:
    def test_parallel_matches_serial(self, conv1d, conv1d_profiles):
        """The tier-1 smoke path: 2 worker processes, small trial count,
        byte-identical tallies vs the serial run."""
        serial = run_campaign(
            conv1d, "AR100", TRIALS, scale=SCALE, profiles=conv1d_profiles
        )
        parallel = run_campaign(
            conv1d, "AR100", TRIALS, scale=SCALE, profiles=conv1d_profiles,
            jobs=2,
        )
        assert campaign_fingerprint(parallel) == campaign_fingerprint(serial)

    def test_chunking_does_not_change_tallies(self, conv1d):
        serial = run_campaign(conv1d, "UNSAFE", TRIALS, scale=SCALE)
        for chunk in (1, 3, 7):
            chunked = run_campaigns(
                [(conv1d, "UNSAFE", None)], trials=TRIALS, scale=SCALE,
                jobs=1, chunk=chunk,
            )[(conv1d.name, "UNSAFE")]
            assert campaign_fingerprint(chunked) == campaign_fingerprint(serial)

    def test_figure9_parallel_matches_serial(self, conv1d):
        kwargs = dict(
            schemes=("UNSAFE", "AR100"), trials=6, scale=SCALE,
            profile_source=campaign_profiles(SCALE),
        )
        serial = figure9([conv1d], **kwargs)
        parallel = figure9([conv1d], jobs=2, **kwargs)
        assert set(serial) == set(parallel)
        for key in serial:
            assert campaign_fingerprint(serial[key]) == campaign_fingerprint(
                parallel[key]
            )


class TestCheckpointResume:
    def test_interrupted_campaign_resumes_to_same_result(self, conv1d, tmp_path):
        path = str(tmp_path / "checkpoint.json")
        group = [(conv1d, "UNSAFE", None)]
        kwargs = dict(trials=TRIALS, scale=SCALE, jobs=1, chunk=4)
        full = run_campaigns(group, checkpoint=path, **kwargs)[
            (conv1d.name, "UNSAFE")
        ]

        # simulate an interrupt: drop the last chunk from the checkpoint
        with open(path) as handle:
            data = json.load(handle)
        assert len(data["chunks"]) == 3  # trials=10, chunk=4 -> 4+4+2
        dropped = sorted(data["chunks"])[-1]
        del data["chunks"][dropped]
        with open(path, "w") as handle:
            json.dump(data, handle)

        resumed = run_campaigns(group, checkpoint=path, resume=True, **kwargs)[
            (conv1d.name, "UNSAFE")
        ]
        assert campaign_fingerprint(resumed) == campaign_fingerprint(full)

    def test_checkpoint_bytes_match_the_serial_run(self, conv1d, tmp_path):
        """Chunk entries are encoded once and the file is rebuilt from
        them: a fresh run, a run resumed after an interrupt and a
        ``jobs=2`` run each write what ``json.dumps`` writes of the
        parsed file, byte-identical to the uninterrupted serial run's."""
        group = [(conv1d, "UNSAFE", None), (conv1d, "SWIFT", None)]
        kwargs = dict(trials=TRIALS, scale=SCALE, chunk=4)

        def written(name, **extra):
            path = tmp_path / name
            run_campaigns(group, checkpoint=str(path), **kwargs, **extra)
            text = path.read_text(encoding="utf-8")
            assert text == json.dumps(json.loads(text))
            return text

        want = written("serial.json", jobs=1)
        assert list(json.loads(want)["chunks"]) == [
            f"conv1d|{scheme}|{start}|{min(4, TRIALS - start)}"
            for scheme in ("UNSAFE", "SWIFT") for start in (0, 4, 8)]

        class Interrupt(Exception):
            pass

        def stop_after_two_chunks(done, total, elapsed):
            if done >= 8:
                raise Interrupt

        with pytest.raises(Interrupt):
            written("resumed.json", jobs=1, progress=stop_after_two_chunks)
        partial = (tmp_path / "resumed.json").read_text(encoding="utf-8")
        assert partial == json.dumps(json.loads(partial))
        assert len(json.loads(partial)["chunks"]) == 2
        assert written("resumed.json", jobs=1, resume=True) == want
        assert written("parallel.json", jobs=2) == want

    def test_progress_reports_completion(self, conv1d, tmp_path):
        seen = []
        run_campaigns(
            [(conv1d, "UNSAFE", None)], trials=TRIALS, scale=SCALE, jobs=1,
            chunk=5, progress=lambda done, total, elapsed: seen.append((done, total)),
        )
        assert seen[0] == (0, TRIALS)
        assert seen[-1] == (TRIALS, TRIALS)
        assert all(total == TRIALS for _, total in seen)

    def test_mismatched_checkpoint_is_rejected(self, conv1d, tmp_path):
        path = str(tmp_path / "checkpoint.json")
        group = [(conv1d, "UNSAFE", None)]
        run_campaigns(group, trials=TRIALS, scale=SCALE, checkpoint=path, chunk=5)
        with pytest.raises(ValueError):
            run_campaigns(
                group, trials=TRIALS, scale=SCALE, checkpoint=path,
                resume=True, seed=99, chunk=5,
            )


class TestResultSerialization:
    def test_round_trip(self, conv1d):
        campaign = run_campaign(conv1d, "UNSAFE", 5, scale=SCALE)
        restored = CampaignResult.from_dict(
            json.loads(json.dumps(campaign.to_dict()))
        )
        assert campaign_fingerprint(restored) == campaign_fingerprint(campaign)

    def test_merge_concatenates_chunks(self):
        a = CampaignResult("w", "s", 3)
        a.tallies[Outcome.CORRECT] += 3
        a.region_steps = 7
        b = CampaignResult("w", "s", 2)
        b.tallies[Outcome.SDC] += 2
        b.caught = 1
        b.region_steps = 7
        a.merge(b)
        assert a.trials == 5
        assert a.tallies[Outcome.CORRECT] == 3
        assert a.tallies[Outcome.SDC] == 2
        assert a.caught == 1

    def test_merge_rejects_foreign_campaign(self):
        a = CampaignResult("w", "s", 1)
        with pytest.raises(ValueError):
            a.merge(CampaignResult("w", "other", 1))


class TestCliWiring:
    def test_figure9_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["--jobs", "4", "figure9", "--trials", "8",
             "--checkpoint", "cp.json", "--resume"]
        )
        assert args.jobs == 4
        assert args.trials == 8
        assert args.checkpoint == "cp.json"
        assert args.resume is True


class TestCliCheckpointErrors:
    """An unusable checkpoint is a user error at the CLI: one line on
    stderr and exit status 2, never a traceback."""

    def _argv(self, command, path, *extra):
        if command == "campaign":
            args = ["campaign", "conv1d", "--scheme", "UNSAFE", "--trials", "5"]
        else:
            args = ["figure9", "--trials", "2"]
        return ["--scale", str(SCALE), *args, "--checkpoint", str(path), *extra]

    def _assert_clean_exit(self, argv, command, needle, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as info:
            main(argv)
        err = capsys.readouterr().err
        assert info.value.code == 2
        assert err.startswith(f"{command}: ") and needle in err
        assert err.count("\n") == 1

    def test_campaign_params_mismatch(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "cp.json"
        assert main(self._argv("campaign", path)) == 0
        capsys.readouterr()
        self._assert_clean_exit(
            self._argv("campaign", path, "--resume", "--seed", "99"),
            "campaign", "different parameters", capsys)

    @pytest.mark.parametrize("command", ["campaign", "figure9"])
    @pytest.mark.parametrize("planted, needle", [
        ("cp.json", "version"),  # a checkpoint of an older version
        ("cp.json", "delete it"),  # cut short: not valid JSON
        ("cp.json.lock", "locked"),  # held by a live campaign
    ])
    def test_unusable_checkpoint(self, command, planted, needle, tmp_path,
                                 capsys, monkeypatch):
        import os

        import repro.cli as cli

        # figure9 over one stateless campaign keeps the command cheap
        monkeypatch.setattr(cli, "ALL_WORKLOADS", [get_workload("conv1d")])
        monkeypatch.setattr(cli, "PAPER_SCHEMES", ("UNSAFE",))
        content = json.dumps({"version": 1, "params": "", "chunks": {}})
        if planted.endswith(".lock"):
            # alive, and not this process
            content = json.dumps({"pid": os.getppid()})
        elif needle == "delete it":
            content = '{"version": 3, "params": "x", "chunks": {"0'
        (tmp_path / planted).write_text(content)
        self._assert_clean_exit(
            self._argv(command, tmp_path / "cp.json", "--resume"),
            command, needle, capsys)


@pytest.mark.slow
def test_full_scale_campaign_smoke(conv1d, conv1d_profiles):
    """A larger campaign, excluded from the default run (-m 'not slow')."""
    campaign = run_campaign(
        conv1d, "AR100", 200, scale=SCALE, profiles=conv1d_profiles, jobs=2
    )
    assert sum(campaign.tallies.values()) == 200


class TestKindWeightKeying:
    """The checkpoint params key and the parallel engine must both carry
    the fault-kind mix (regression: kind_weights used to be dropped)."""

    def test_checkpoint_rejects_different_kind_mix(self, conv1d, tmp_path):
        from repro.runtime.faults import ADVERSARIAL_KIND_WEIGHTS

        path = str(tmp_path / "checkpoint.json")
        group = [(conv1d, "UNSAFE", None)]
        run_campaigns(group, trials=TRIALS, scale=SCALE,
                      checkpoint=path, chunk=5)
        with pytest.raises(ValueError, match="kind_weights"):
            run_campaigns(
                group, trials=TRIALS, scale=SCALE, checkpoint=path,
                resume=True, chunk=5,
                kind_weights=ADVERSARIAL_KIND_WEIGHTS,
            )

    def test_pre_kind_weight_checkpoint_is_rejected(self, conv1d, tmp_path):
        """A version-1 checkpoint (written before kind weights entered the
        params key) must be refused, not silently resumed."""
        path = str(tmp_path / "checkpoint.json")
        group = [(conv1d, "UNSAFE", None)]
        run_campaigns(group, trials=TRIALS, scale=SCALE,
                      checkpoint=path, chunk=5)
        with open(path) as handle:
            data = json.load(handle)
        data["version"] = 1
        with open(path, "w") as handle:
            json.dump(data, handle)
        with pytest.raises(ValueError, match="version"):
            run_campaigns(group, trials=TRIALS, scale=SCALE,
                          checkpoint=path, resume=True, chunk=5)

    def test_checkpoint_rejects_protocol_definition_change(
            self, conv1d, tmp_path, monkeypatch):
        """The params key carries per-scheme descriptor hashes (which
        cover the protocol), so a checkpoint written under one protocol
        definition refuses to resume under another.  Regression: the
        version-2 key ignored scheme definitions entirely, so a REPLAY/
        CKPT knob change silently mixed incompatible chunks."""
        import repro.eval.campaign_engine as engine

        path = str(tmp_path / "checkpoint.json")
        group = [(conv1d, "ckpt4", None)]
        run_campaigns(group, trials=TRIALS, scale=SCALE,
                      checkpoint=path, chunk=5)

        real_get_scheme = engine.get_scheme

        def tampered_get_scheme(scheme, config=None):
            descriptor = real_get_scheme(scheme, config)

            class _Tampered:
                def descriptor_hash(self):
                    return "protocol-definition-changed"

            return _Tampered()

        monkeypatch.setattr(engine, "get_scheme", tampered_get_scheme)
        with pytest.raises(ValueError, match="different parameters"):
            run_campaigns(group, trials=TRIALS, scale=SCALE,
                          checkpoint=path, resume=True, chunk=5)

    def test_parallel_kind_mix_matches_serial(self, conv1d):
        """--jobs N with a non-default kind mix: workers must receive the
        mix (regression: it was not in the task args) and tally
        byte-identically with the serial engine."""
        from repro.runtime.faults import ADVERSARIAL_KIND_WEIGHTS

        kwargs = dict(trials=TRIALS, scale=SCALE,
                      kind_weights=ADVERSARIAL_KIND_WEIGHTS)
        serial = run_campaign(conv1d, "UNSAFE", **kwargs)
        parallel = run_campaign(conv1d, "UNSAFE", jobs=2, **kwargs)
        assert campaign_fingerprint(parallel) == campaign_fingerprint(serial)
        assert {k: dict(v) for k, v in parallel.kind_tallies.items()} == \
               {k: dict(v) for k, v in serial.kind_tallies.items()}
        # the default mix never draws skip faults: seeing them proves the
        # adversarial mix actually reached the workers
        assert set(serial.kind_tallies) - {"value", "branch", "addr"}
        assert set(parallel.kind_tallies) == set(serial.kind_tallies)

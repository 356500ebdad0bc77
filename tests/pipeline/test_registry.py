"""The scheme registry: one canonicalization for every historical spelling."""
import pytest

from repro.core import RSkipConfig
from repro.pipeline import (
    DRIVER_SCHEMES,
    PAPER_SCHEMES,
    SWIFT,
    SWIFT_R,
    UNSAFE,
    all_descriptors,
    canonical_scheme,
    get_scheme,
    rskip_label,
    scheme_names,
)


class TestCanonicalScheme:
    @pytest.mark.parametrize(
        "alias,canon",
        [
            ("none", UNSAFE),
            ("UNSAFE", UNSAFE),
            ("swift", SWIFT),
            ("SWIFT", SWIFT),
            ("swift-r", SWIFT_R),
            ("SWIFT-R", SWIFT_R),
            ("ar20", "AR20"),
            ("AR20", "AR20"),
        ],
    )
    def test_both_spellings_accepted(self, alias, canon):
        assert canonical_scheme(alias) == canon
        assert get_scheme(alias) is get_scheme(canon) or (
            get_scheme(alias) == get_scheme(canon)
        )

    def test_case_and_whitespace_insensitive(self):
        assert canonical_scheme("  Swift-R ") == SWIFT_R
        assert canonical_scheme("Ar50") == "AR50"

    def test_canonical_names_self_map(self):
        # trial seeds hash the scheme string: canonical spellings must be
        # fixpoints so canonicalizing at the campaign boundary is a no-op
        # for callers that already pass paper labels.
        for name in PAPER_SCHEMES:
            assert canonical_scheme(name) == name

    def test_rskip_alias_resolves_via_config(self):
        assert canonical_scheme("rskip") == "AR20"  # default config
        assert canonical_scheme("rskip", RSkipConfig(acceptable_range=0.8)) == "AR80"
        assert get_scheme("rskip").acceptable_range == pytest.approx(0.2)

    def test_driver_spellings_all_resolve(self):
        assert [canonical_scheme(s) for s in DRIVER_SCHEMES] == [
            UNSAFE, SWIFT, SWIFT_R, "AR20",
        ]

    def test_unknown_scheme_raises_with_alias_list(self):
        with pytest.raises(ValueError, match="unknown scheme 'tmr'") as exc:
            canonical_scheme("tmr")
        message = str(exc.value)
        # the error must teach the full vocabulary
        for known in (UNSAFE, SWIFT, SWIFT_R, "none", "swift-r", "rskip", "AR<k>"):
            assert known in message

    def test_ar_labels_beyond_100_accepted(self):
        # the AR sweep legitimately goes past the paper's grid (ar=1.5, 2.0)
        assert canonical_scheme("AR150") == "AR150"
        desc = get_scheme("ar150")
        assert desc.acceptable_range == pytest.approx(1.5)
        assert desc.needs_training and desc.needs_runtime

    def test_descriptor_passthrough(self):
        desc = get_scheme("AR20")
        assert canonical_scheme(desc) == "AR20"
        assert get_scheme(desc) is desc


class TestDescriptors:
    def test_rskip_label_matches_registry(self):
        assert rskip_label(0.2) == "AR20"
        assert rskip_label(1.0) == "AR100"
        assert get_scheme(rskip_label(0.5)).acceptable_range == pytest.approx(0.5)

    def test_pass_lists(self):
        assert get_scheme(UNSAFE).passes == ()
        assert get_scheme(SWIFT).passes == ("swift",)
        assert get_scheme(SWIFT_R).passes == ("swift-r",)
        assert get_scheme("AR80").passes == ("rskip",)

    def test_runtime_requirements(self):
        assert not get_scheme(SWIFT_R).needs_training
        assert not get_scheme(SWIFT_R).needs_runtime
        assert get_scheme("AR20").needs_training
        assert get_scheme("AR20").needs_runtime

    def test_descriptor_hash_stable_and_distinct(self):
        assert get_scheme("AR20").descriptor_hash() == get_scheme("ar20").descriptor_hash()
        hashes = {get_scheme(name).descriptor_hash() for name in scheme_names()}
        assert len(hashes) == len(scheme_names())

    def test_listing_covers_paper_schemes(self):
        names = scheme_names()
        listed = {d.name for d in all_descriptors()}
        for scheme in PAPER_SCHEMES:
            assert scheme in names
            assert scheme in listed
        assert SWIFT in listed  # detection-only scheme is listed too


class TestProtocolFamilies:
    @pytest.mark.parametrize(
        "alias,canon",
        [
            ("replay", "REPLAY1"),
            ("REPLAY1", "REPLAY1"),
            ("replay2", "REPLAY2"),
            ("Replay16", "REPLAY16"),
            ("ckpt", "CKPT8"),
            ("CKPT8", "CKPT8"),
            ("ckpt32", "CKPT32"),
            ("ckpt8fix", "CKPT8FIX"),
            ("CKPT4FIX", "CKPT4FIX"),
        ],
    )
    def test_protocol_spellings_accepted(self, alias, canon):
        assert canonical_scheme(alias) == canon
        assert get_scheme(alias).name == canon

    @pytest.mark.parametrize("bad", ["replay0", "ckpt0", "REPLAY0", "CKPT0FIX"])
    def test_degenerate_parameters_rejected(self, bad):
        with pytest.raises(ValueError):
            canonical_scheme(bad)

    def test_replay_protocol_shape(self):
        proto = get_scheme("replay2").protocol
        assert proto.detect == "replay-compare"
        assert proto.recovery == "abort"
        assert proto.redundancy == "time"
        assert proto.flip_scope == "region"
        assert proto.contract == "detected-or-masked"
        assert dict(proto.params)["sample_period"] == 2
        assert proto.verify_as == "REPLAY1"

    def test_ckpt_protocol_shape(self):
        proto = get_scheme("ckpt8").protocol
        assert proto.detect == "replay-compare"
        assert proto.recovery == "rollback"
        assert proto.contract == "exactly-masked"
        assert dict(proto.params)["interval"] == 8
        assert dict(proto.params)["predictor"] == 1.0
        assert dict(get_scheme("ckpt8fix").protocol.params)["predictor"] == 0.0

    def test_paper_scheme_protocols_derived_not_hardcoded(self):
        assert get_scheme(SWIFT).protocol.contract == "detected-or-masked"
        assert get_scheme(SWIFT_R).protocol.contract == "exactly-masked"
        assert get_scheme("AR20").protocol.detect == "predict-compare"
        assert get_scheme(UNSAFE).protocol.contract == "none"

    def test_protocol_params_feed_descriptor_hash(self):
        # checkpoint-resume integrity depends on this: a protocol knob
        # change must change the descriptor hash
        assert (get_scheme("replay2").descriptor_hash()
                != get_scheme("replay3").descriptor_hash())
        assert (get_scheme("ckpt8").descriptor_hash()
                != get_scheme("ckpt8fix").descriptor_hash())
        assert (get_scheme("ckpt8").descriptor_hash()
                != get_scheme("ckpt16").descriptor_hash())

    def test_registry_enumerations_cover_protocol_families(self):
        from repro.pipeline import default_campaign_schemes, protection_pass_schemes

        passes = protection_pass_schemes()
        assert passes[0] is None  # unprotected baseline first
        assert "replay" in passes and "ckpt" in passes
        campaign = default_campaign_schemes()
        assert campaign[0] == UNSAFE
        assert "REPLAY2" in campaign and "CKPT8" in campaign
        assert UNSAFE not in default_campaign_schemes(include_unsafe=False)

"""The scheme registry: one declarative source of truth for protection
schemes.

Historically the repo kept four divergent scheme tables — the driver's
``("none", "swift", "swift-r", "rskip")``, the evaluation's
``UNSAFE``/``SWIFT-R``/``AR<k>`` labels, the difftest transform dicts and
the CLI choices — and each layer re-implemented name parsing.  This
module replaces all of them with :class:`SchemeDescriptor` records:
canonical name, accepted aliases, the ordered pass list the scheme runs,
its parameters (acceptable range), and what it needs at run time
(trained profiles, a stateful runtime manager).

Canonical names are the paper's labels: ``UNSAFE``, ``SWIFT``,
``SWIFT-R`` and ``AR<k>`` for the RSkip family (``AR20`` == acceptable
range 0.2), plus the post-paper families ``REPLAY<n>`` (sampled
re-execution, RepTFD) and ``CKPT<i>`` (predictor-steered
checkpoint/rollback, Aupy/Robert/Vivien).  :func:`canonical_scheme` maps
every historical spelling onto them — case-insensitively, so
``"swift-r"`` and ``"SWIFT-R"`` are the same scheme — and raises with
the full alias list on anything unknown.

Every descriptor also carries a :class:`Protocol`: the declarative
detection/recovery semantics of the scheme.  Engines never read it (they
dispatch through the scheme's intrinsic table), but the O3 metamorphic
oracle derives each scheme's fault contract from it, ``repro schemes``
prints it, and the descriptor hash covers it — so changing a scheme's
semantics invalidates cached artifacts and campaign checkpoints.
"""
from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..core.config import RSkipConfig

#: Bump when descriptor semantics change — part of every descriptor hash,
#: so artifact-cache entries from an older pipeline never resolve.
REGISTRY_VERSION = 2

UNSAFE = "UNSAFE"
SWIFT = "SWIFT"
SWIFT_R = "SWIFT-R"

#: The scheme order of the paper's figures.
PAPER_SCHEMES = (UNSAFE, SWIFT_R, "AR20", "AR50", "AR80", "AR100")

#: The compiler driver's historical spellings (one alias per family);
#: kept as the stable `repro.SCHEMES` export.
DRIVER_SCHEMES = ("none", "swift", "swift-r", "rskip")

#: Default listed instance of each open-parameter family beyond AR<k>.
REPLAY_DEFAULT = "REPLAY2"
CKPT_DEFAULT = "CKPT8"

#: Elements per REPLAY signature window (runtime knob, part of the
#: protocol params so it is covered by the descriptor hash).
REPLAY_WINDOW = 4


def rskip_label(acceptable_range: float) -> str:
    """Paper-style label for an acceptable range, e.g. ``0.2 -> "AR20"``."""
    return f"AR{int(round(acceptable_range * 100))}"


@dataclass(frozen=True)
class Protocol:
    """Declarative detection/recovery semantics of one scheme.

    ``detect``      how faults are noticed: ``none`` | ``dup-compare``
                    (spatially redundant copy) | ``predict-compare``
                    (value prediction validates results) |
                    ``replay-compare`` (temporal re-execution).
    ``compare``     the comparison rule feeding detection: ``none`` |
                    ``exact`` | ``range`` (fuzzy, acceptable-range) |
                    ``majority``.
    ``recovery``    the action on a mismatch: ``none`` | ``abort``
                    (raise, detected-or-masked contract) | ``vote`` |
                    ``rollback`` (both exactly-masked contracts).
    ``redundancy``  what is duplicated: ``none`` | ``space``
                    (instructions) | ``prediction`` | ``time``
                    (re-execution).
    ``flip_scope``  where O3 injects flips: ``none`` | ``shadow``
                    (``.sw1``/``.sw2`` register copies) | ``region``
                    (frames of ``protocol-region``-marked functions).
    ``verify_as``   the family instance O3 verifies — sampled protocols
                    only honour the contract at their full-coverage
                    point (e.g. ``REPLAY1``); ``None`` = verify as-is.
    ``params``      the scheme's cost knobs, ``((name, value), ...)``.
    ``overhead_hint``  cost-model hook: rough expected slowdown vs
                    UNSAFE, used for listings and tradeoff ordering
                    (measured numbers always win where available).
    """

    detect: str = "none"
    compare: str = "none"
    recovery: str = "none"
    redundancy: str = "none"
    flip_scope: str = "none"
    verify_as: Optional[str] = None
    params: Tuple[Tuple[str, float], ...] = ()
    overhead_hint: float = 1.0

    @property
    def contract(self) -> str:
        """The O3 fault contract implied by the recovery action alone.

        ``abort`` may surface a landed flip as a detection *or* mask it
        (``detected-or-masked``); correcting recoveries (``vote``,
        ``rollback``) must leave final state exactly golden
        (``exactly-masked``); ``none`` makes no promise.
        """
        if self.recovery == "abort":
            return "detected-or-masked"
        if self.recovery in ("vote", "rollback"):
            return "exactly-masked"
        return "none"

    def to_dict(self) -> dict:
        return {
            "detect": self.detect,
            "compare": self.compare,
            "recovery": self.recovery,
            "redundancy": self.redundancy,
            "flip_scope": self.flip_scope,
            "verify_as": self.verify_as,
            "params": [[k, v] for k, v in self.params],
            "overhead_hint": self.overhead_hint,
        }

    def describe(self) -> str:
        """One-line rendering for ``repro schemes``."""
        knobs = ", ".join(f"{k}={v:g}" for k, v in self.params)
        return (
            f"detect={self.detect}/{self.compare} recover={self.recovery} "
            f"redundancy={self.redundancy} contract={self.contract}"
            + (f" knobs[{knobs}]" if knobs else "")
        )


@dataclass(frozen=True)
class SchemeDescriptor:
    """One protection scheme, declaratively.

    ``passes`` is the ordered list of protection-stage pass names (see
    :mod:`repro.pipeline.passes`); cleanup passes are orthogonal and
    prepended by callers that optimize.  ``acceptable_range`` is set for
    the RSkip family only.  ``protocol`` declares the scheme's
    detection/recovery semantics (see :class:`Protocol`).
    """

    name: str
    aliases: Tuple[str, ...]
    passes: Tuple[str, ...]
    acceptable_range: Optional[float] = None
    needs_training: bool = False
    needs_runtime: bool = False
    description: str = ""
    protocol: Protocol = field(default_factory=Protocol)

    @property
    def is_rskip(self) -> bool:
        return self.acceptable_range is not None

    def descriptor_hash(self) -> str:
        """Stable digest of everything that identifies this scheme —
        one axis of the artifact-cache key (and, since checkpoint
        format v3, of campaign checkpoint params)."""
        payload = json.dumps(
            {
                "version": REGISTRY_VERSION,
                "name": self.name,
                "passes": list(self.passes),
                "acceptable_range": self.acceptable_range,
                "needs_training": self.needs_training,
                "needs_runtime": self.needs_runtime,
                "protocol": self.protocol.to_dict(),
            },
            sort_keys=True, separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


_STATIC: Dict[str, SchemeDescriptor] = {
    UNSAFE: SchemeDescriptor(
        name=UNSAFE,
        aliases=("UNSAFE", "none"),
        passes=(),
        description="no protection (baseline and golden-output source)",
        protocol=Protocol(),
    ),
    SWIFT: SchemeDescriptor(
        name=SWIFT,
        aliases=("SWIFT", "swift"),
        passes=("swift",),
        description="instruction duplication + detection-only checkers",
        protocol=Protocol(
            detect="dup-compare", compare="exact", recovery="abort",
            redundancy="space", flip_scope="shadow", overhead_hint=2.3,
        ),
    ),
    SWIFT_R: SchemeDescriptor(
        name=SWIFT_R,
        aliases=("SWIFT-R", "swift-r"),
        passes=("swift-r",),
        description="instruction triplication + majority-vote recovery",
        protocol=Protocol(
            detect="dup-compare", compare="majority", recovery="vote",
            redundancy="space", flip_scope="shadow", overhead_hint=3.4,
        ),
    ),
}

_AR_PATTERN = re.compile(r"^ar(\d{1,3})$")
_REPLAY_PATTERN = re.compile(r"^replay(\d{1,3})$")
_CKPT_PATTERN = re.compile(r"^ckpt(\d{1,4})(fix)?$")

#: lowercase alias -> canonical name (the open-parameter families are
#: handled by pattern + their bare-name default aliases, not this table)
_ALIASES: Dict[str, str] = {
    alias.lower(): desc.name
    for desc in _STATIC.values()
    for alias in desc.aliases
}


def _rskip_descriptor(percent: int) -> SchemeDescriptor:
    return SchemeDescriptor(
        name=f"AR{percent}",
        aliases=(f"AR{percent}", f"ar{percent}", "rskip"),
        passes=("rskip",),
        acceptable_range=percent / 100.0,
        needs_training=True,
        needs_runtime=True,
        description=(
            f"prediction-based protection at acceptable range "
            f"{percent / 100.0:g} (PP/CP outlining + SWIFT-R skeleton)"
        ),
        protocol=Protocol(
            detect="predict-compare",
            compare="range" if percent else "exact",
            recovery="vote",
            redundancy="prediction",
            flip_scope="shadow",
            params=(("acceptable_range", percent / 100.0),),
            overhead_hint=1.5,
        ),
    )


def _replay_descriptor(period: int) -> SchemeDescriptor:
    """REPLAY<n>: record loop-level input/output signatures, re-execute
    every n-th signature window temporally (the same outlined body — no
    instruction duplication) and compare exactly; mismatch aborts.

    Detection only covers replayed windows, so the detected-or-masked
    contract holds in full at the ``REPLAY1`` point — that is where O3
    verifies the family (``verify_as``).
    """
    aliases = (f"REPLAY{period}", f"replay{period}")
    if period == 1:
        aliases += ("replay",)
    return SchemeDescriptor(
        name=f"REPLAY{period}",
        aliases=aliases,
        passes=("replay",),
        needs_runtime=True,
        description=(
            f"replay-based detection: re-execute every {_ordinal(period)} "
            f"signature window of {REPLAY_WINDOW} loop iterations and "
            f"compare (RepTFD; temporal redundancy, no duplication)"
        ),
        protocol=Protocol(
            detect="replay-compare",
            compare="exact",
            recovery="abort",
            redundancy="time",
            flip_scope="region",
            verify_as="REPLAY1",
            params=(
                ("sample_period", float(period)),
                ("window", float(REPLAY_WINDOW)),
            ),
            overhead_hint=1.0 + 1.0 / period,
        ),
    )


def _ckpt_descriptor(interval: int, fixed: bool = False) -> SchemeDescriptor:
    """CKPT<i>: buffer loop results and commit them at checkpoints every
    ~i iterations, validating the whole segment by re-execution first;
    a mismatch rolls the element back (re-execute + majority vote)
    instead of aborting.  The live commit interval shrinks below *i*
    when the RSkip predictor's misprediction rate — its fault-likelihood
    signal — rises (Aupy/Robert/Vivien: prediction steers checkpointing).
    The ``CKPT<i>FIX`` variant pins the interval (no predictor
    steering) — the control arm for measuring the signal's effect.
    """
    name = f"CKPT{interval}" + ("FIX" if fixed else "")
    aliases = (name, name.lower())
    if name == CKPT_DEFAULT:
        aliases += ("ckpt",)
    return SchemeDescriptor(
        name=name,
        aliases=aliases,
        passes=("ckpt",),
        needs_runtime=True,
        description=(
            f"checkpoint/restart recovery: validate-and-commit segments "
            f"every <= {interval} iterations, rollback-on-detection; "
            + ("fixed interval (no predictor steering)" if fixed else
               "interval steered by the predictor fault signal")
        ),
        protocol=Protocol(
            detect="replay-compare",
            compare="exact",
            recovery="rollback",
            redundancy="time",
            flip_scope="region",
            params=(
                ("interval", float(interval)),
                ("predictor", 0.0 if fixed else 1.0),
            ),
            overhead_hint=2.0,
        ),
    )


def _ordinal(n: int) -> str:
    if n == 1:
        return "1st (every)"
    suffix = {2: "nd", 3: "rd"}.get(n if n < 20 else n % 10, "th")
    return f"{n}{suffix}"


def alias_help() -> str:
    """Human-readable alias table for unknown-scheme errors."""
    parts = [
        f"{desc.name} (aliases: {', '.join(a for a in desc.aliases if a != desc.name)})"
        for desc in _STATIC.values()
    ]
    parts.append("AR<k> for any integer k (aliases: ar<k>; 'rskip' = the "
                 "config's acceptable range, AR20 by default; the AR "
                 "sweep goes past 100)")
    parts.append("REPLAY<n> for any sample period n >= 1 (aliases: "
                 "replay<n>; bare 'replay' = REPLAY1, the full-coverage "
                 "point)")
    parts.append(f"CKPT<i> for any checkpoint interval i >= 1 (aliases: "
                 f"ckpt<i>; bare 'ckpt' = {CKPT_DEFAULT}; CKPT<i>FIX pins "
                 f"the interval, no predictor steering)")
    return "; ".join(parts)


def canonical_scheme(
    name: Union[str, SchemeDescriptor],
    config: Optional[RSkipConfig] = None,
) -> str:
    """Map any accepted spelling onto the canonical scheme name.

    ``"rskip"`` resolves to the AR label of *config* (the default
    :class:`RSkipConfig` when none is given); bare ``"replay"`` and
    ``"ckpt"`` resolve to their family defaults.  Unknown names raise
    ``ValueError`` carrying the full alias list.
    """
    if isinstance(name, SchemeDescriptor):
        return name.name
    key = str(name).strip().lower()
    canon = _ALIASES.get(key)
    if canon is not None:
        return canon
    if key == "rskip":
        ar = (config or RSkipConfig()).acceptable_range
        return rskip_label(ar)
    if key == "replay":
        # The bare spelling is the protection *pass* name, so it must
        # mean the point whose contract the pass implements unsampled.
        return "REPLAY1"
    if key == "ckpt":
        return CKPT_DEFAULT
    match = _AR_PATTERN.match(key)
    if match:
        return f"AR{int(match.group(1))}"
    match = _REPLAY_PATTERN.match(key)
    if match:
        period = int(match.group(1))
        if period < 1:
            raise ValueError(
                f"invalid scheme {name!r}: REPLAY<n> needs a sample "
                f"period n >= 1"
            )
        return f"REPLAY{period}"
    match = _CKPT_PATTERN.match(key)
    if match:
        interval = int(match.group(1))
        if interval < 1:
            raise ValueError(
                f"invalid scheme {name!r}: CKPT<i> needs a checkpoint "
                f"interval i >= 1"
            )
        return f"CKPT{interval}" + ("FIX" if match.group(2) else "")
    raise ValueError(
        f"unknown scheme {name!r}; known schemes: {alias_help()}"
    )


def get_scheme(
    name: Union[str, SchemeDescriptor],
    config: Optional[RSkipConfig] = None,
) -> SchemeDescriptor:
    """The descriptor behind any accepted scheme spelling."""
    if isinstance(name, SchemeDescriptor):
        return name
    canon = canonical_scheme(name, config)
    static = _STATIC.get(canon)
    if static is not None:
        return static
    if canon.startswith("AR"):
        return _rskip_descriptor(int(canon[2:]))
    if canon.startswith("REPLAY"):
        return _replay_descriptor(int(canon[len("REPLAY"):]))
    fixed = canon.endswith("FIX")
    digits = canon[len("CKPT"):len(canon) - 3 if fixed else len(canon)]
    return _ckpt_descriptor(int(digits), fixed=fixed)


def scheme_names(include_paper_ars: bool = True) -> Tuple[str, ...]:
    """Canonical names for listings: the static schemes, (by default) the
    paper's four AR points, and one default point per open-parameter
    family beyond AR<k>."""
    names = tuple(_STATIC)
    if include_paper_ars:
        names += tuple(s for s in PAPER_SCHEMES if s.startswith("AR"))
    names += (REPLAY_DEFAULT, CKPT_DEFAULT)
    return names


def all_descriptors() -> Tuple[SchemeDescriptor, ...]:
    """Descriptors for :func:`scheme_names` — what ``repro schemes`` lists."""
    return tuple(get_scheme(name) for name in scheme_names())


def protection_pass_schemes() -> Tuple[Optional[str], ...]:
    """One representative label per registered protection *pass*, in
    registry order, with ``None`` for the unprotected baseline.

    This is the scheme axis for pass-level analyses (skip maps,
    vulnerability tables): those care which transform ran, not which
    parameter point, so each pass appears once.  Sourcing the axis here
    means a newly registered family shows up in every such analysis
    without edits (pinned by a regression test).
    """
    axis: List[Optional[str]] = [None]
    seen = set()
    for desc in all_descriptors():
        for pass_name in desc.passes:
            if pass_name not in seen:
                seen.add(pass_name)
                axis.append(pass_name)
    return tuple(axis)


def default_campaign_schemes(include_unsafe: bool = True) -> Tuple[str, ...]:
    """The default scheme axis for campaign-style enumerations
    (tradeoffs, figure-9 sweeps): the paper's axis first, then every
    additionally registered scheme, deduplicated in order.

    Like :func:`protection_pass_schemes` this is registry-sourced so a
    registered scheme can never silently be missing from tradeoff
    output.
    """
    names: List[str] = [
        s for s in PAPER_SCHEMES if include_unsafe or s != UNSAFE
    ]
    for name in scheme_names():
        if name not in names and (include_unsafe or name != UNSAFE):
            names.append(name)
    return tuple(names)

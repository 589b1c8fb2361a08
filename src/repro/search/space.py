"""Search-space definition for the staged architecture search.

A :class:`CandidateSpec` is one point of the (adjacency strategy x
hidden sizes x ternary threshold x sparse encoding x activation width)
space the search explores per board.  It is deliberately *not* a
:class:`~repro.core.neuroc.NeuroCConfig`: the spec also carries the
deployment-side choices (encoding, quantization mode) a config knows
nothing about, and its :attr:`~CandidateSpec.key` is the stable,
filename-safe identity every cache key, artifact row, and promotion
decision is built from.

Sampling is prefix-stable: ``sample_space(n, seed)`` is always the
first ``n`` entries of ``sample_space(m, seed)`` for ``m >= n``, so a
flat baseline sweep over ``k`` candidates evaluates an exact subset of
the staged sweep's larger pool — the property the staged-vs-flat
benchmark relies on.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass

import numpy as np

from repro.core.adjacency import ALL_STRATEGIES
from repro.core.neuroc import NeuroCConfig
from repro.errors import ConfigurationError
from repro.kernels.codegen_sparse import SPARSE_FORMATS

#: Hidden-layer width choices (capped at 256: the staged search prices
#: flash analytically before training, so huge configs are cheap to
#: enumerate but pointless to sample often).
HIDDEN_CHOICES = (32, 48, 64, 96, 128, 192, 256)
#: Layer-count choices (weighted toward single-hidden-layer nets, like
#: the paper's zoo).
DEPTH_CHOICES = (1, 1, 1, 2)
#: Ternary thresholds: higher keeps fewer connections (the STE
#: quantizer's fixed-threshold semantics; the PTQ proxy mirrors them as
#: a magnitude quantile — see
#: :func:`repro.quantize.ptq.ternarize_float_model`).
THRESHOLD_CHOICES = (0.80, 0.84, 0.88, 0.92)
#: Sparse encodings the deploy layer supports.
ENCODING_CHOICES = SPARSE_FORMATS
#: Activation widths (int8 / int16) — the "quantization mode" axis.
ACT_WIDTH_CHOICES = (1, 2)
#: Adjacency strategies; "quantization" (learned) is weighted because it
#: wins the paper's Figure 1 frontier.
STRATEGY_CHOICES = (
    "quantization", "quantization", "random", "constrained_random",
    "locality",
)


@dataclass(frozen=True)
class CandidateSpec:
    """One point of the search space (architecture + deployment axes)."""

    strategy: str
    hidden: tuple[int, ...]
    threshold: float
    encoding: str
    act_width: int

    def __post_init__(self) -> None:
        if self.strategy not in ALL_STRATEGIES:
            raise ConfigurationError(
                f"unknown strategy {self.strategy!r}; "
                f"known: {ALL_STRATEGIES}"
            )
        if self.encoding not in SPARSE_FORMATS:
            raise ConfigurationError(
                f"unknown encoding {self.encoding!r}; "
                f"known: {SPARSE_FORMATS}"
            )
        if self.act_width not in (1, 2):
            raise ConfigurationError(
                f"act_width must be 1 or 2, got {self.act_width}"
            )
        if not 0.0 <= self.threshold < 1.0:
            raise ConfigurationError(
                f"threshold must be in [0, 1), got {self.threshold}"
            )
        if not self.hidden or any(h < 1 for h in self.hidden):
            raise ConfigurationError(
                f"hidden widths must be positive: {self.hidden}"
            )
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))

    @property
    def key(self) -> str:
        """Stable filename-safe identity (cache keys, artifact rows)."""
        widths = "x".join(str(h) for h in self.hidden)
        return (
            f"{self.strategy}-{widths}-t{self.threshold:.2f}-"
            f"{self.encoding}-w{self.act_width}"
        )

    def to_dict(self) -> dict:
        d = asdict(self)
        d["hidden"] = list(self.hidden)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "CandidateSpec":
        return cls(
            strategy=d["strategy"],
            hidden=tuple(d["hidden"]),
            threshold=float(d["threshold"]),
            encoding=d["encoding"],
            act_width=int(d["act_width"]),
        )

    def to_config(
        self,
        n_in: int,
        n_out: int,
        seed: int = 0,
        image_shape: tuple[int, int] | None = None,
    ) -> NeuroCConfig:
        """The trainable config this spec denotes on a given dataset.

        For the fixed strategies the threshold axis maps onto the
        support density — ``density = (1 - threshold) / 2`` so the
        default 0.84 matches the library's 0.08 default density and
        higher thresholds mean sparser for every strategy.
        """
        return NeuroCConfig(
            n_in=n_in,
            n_out=n_out,
            hidden=self.hidden,
            threshold=self.threshold,
            strategy=self.strategy,
            seed=seed,
            image_shape=image_shape,
            fixed_density=max((1.0 - self.threshold) / 2.0, 0.02),
            name=self.key,
        )


def sample_space(count: int, seed: int = 0) -> list[CandidateSpec]:
    """Draw ``count`` distinct specs, prefix-stable in ``count``."""
    if count < 1:
        raise ConfigurationError("need at least one candidate")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EA]))
    specs: list[CandidateSpec] = []
    seen: set[str] = set()
    attempts = 0
    while len(specs) < count and attempts < 500 * count:
        attempts += 1
        depth = int(rng.choice(DEPTH_CHOICES))
        hidden = tuple(
            sorted(
                (int(rng.choice(HIDDEN_CHOICES)) for _ in range(depth)),
                reverse=True,
            )
        )
        spec = CandidateSpec(
            strategy=str(rng.choice(STRATEGY_CHOICES)),
            hidden=hidden,
            threshold=float(rng.choice(THRESHOLD_CHOICES)),
            encoding=str(rng.choice(ENCODING_CHOICES)),
            act_width=int(rng.choice(ACT_WIDTH_CHOICES)),
        )
        if spec.key in seen:
            continue
        seen.add(spec.key)
        specs.append(spec)
    if len(specs) < count:
        raise ConfigurationError(
            f"search space exhausted after {len(specs)} distinct specs "
            f"(asked for {count})"
        )
    return specs


def enumerate_space(
    strategies: tuple[str, ...] = ("quantization",),
    hiddens: tuple[tuple[int, ...], ...] = ((48,), (96,)),
    thresholds: tuple[float, ...] = (0.84, 0.92),
    encodings: tuple[str, ...] = ("block",),
    act_widths: tuple[int, ...] = (1,),
) -> list[CandidateSpec]:
    """The full cartesian product over explicit axis values.

    For small deliberate grids (the PTQ-proxy fidelity test) where
    random sampling would under-cover an axis.
    """
    return [
        CandidateSpec(
            strategy=s, hidden=h, threshold=t, encoding=e, act_width=w
        )
        for s, h, t, e, w in itertools.product(
            strategies, hiddens, thresholds, encodings, act_widths
        )
    ]

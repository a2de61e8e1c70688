"""Distributions appearing in sampling assignments.

Synthesis and checking only ever consume two facts about a distribution:
its exact mean and an interval containing its support. Sampling (for the
simulator) additionally needs a draw procedure; built-in kinds carry one,
`custom` kinds look theirs up in a registry by sampler id.

`SCALAR_KINDS` alone names the scalar kinds, their source names and
their parameters; the parser, the JSON interchange and `pretty` read it.
Only `discrete` and `custom` have a case of their own there.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .rationals import rat, RationalLike


class DistKind(enum.Enum):
    NORMAL = "normal"
    UNIFORM = "uniform"
    BERNOULLI = "bernoulli"
    DISCRETE = "discrete"
    CUSTOM = "custom"


UNIT_BITS = 53
"""A uniform draw is m / 2**UNIT_BITS for m the top 53 bits of one raw
64-bit word, as numpy's `Generator.random` reads it."""

# Custom samplers: id -> rng-consuming draw function returning float.
_SAMPLERS: Dict[str, Callable] = {}


def register_sampler(name: str, fn: Callable) -> None:
    _SAMPLERS[name] = fn


@dataclass(frozen=True)
class DistributionSpec:
    """A named distribution with exact mean and support interval.

    `support_lo`/`support_hi` of None mean unbounded on that side. The
    declared mean must be the analytic mean for built-in kinds and must
    lie inside the support.
    """

    kind: DistKind
    mean: Fraction
    support_lo: Optional[Fraction]
    support_hi: Optional[Fraction]
    params: Tuple[Tuple[str, object], ...] = field(default=())

    def __post_init__(self):
        if self.support_lo is not None and self.mean < self.support_lo:
            raise ValueError("mean below support")
        if self.support_hi is not None and self.mean > self.support_hi:
            raise ValueError("mean above support")
        if (self.support_lo is not None and self.support_hi is not None
                and self.support_lo > self.support_hi):
            raise ValueError("empty support interval")

    @property
    def bounded(self) -> bool:
        return self.support_lo is not None and self.support_hi is not None

    @property
    def drawable(self) -> bool:
        """False for a custom kind whose sampler is not registered."""
        return self.kind is not DistKind.CUSTOM or self.param("sampler") in _SAMPLERS

    def param(self, name: str):
        for k, v in self.params:
            if k == name:
                return v
        raise KeyError(name)

    # -- constructors -------------------------------------------------

    @staticmethod
    def normal(mean: RationalLike, stddev: RationalLike) -> "DistributionSpec":
        mean, stddev = rat(mean), rat(stddev)
        if stddev <= 0:
            raise ValueError("stddev must be positive")
        return DistributionSpec(DistKind.NORMAL, mean, None, None,
                                (("mean", mean), ("stddev", stddev)))

    @staticmethod
    def uniform(lo: RationalLike, hi: RationalLike) -> "DistributionSpec":
        lo, hi = rat(lo), rat(hi)
        if lo > hi:
            raise ValueError("uniform needs lo <= hi")
        return DistributionSpec(DistKind.UNIFORM, (lo + hi) / 2, lo, hi,
                                (("lo", lo), ("hi", hi)))

    @staticmethod
    def bernoulli(p: RationalLike) -> "DistributionSpec":
        p = rat(p)
        if not 0 <= p <= 1:
            raise ValueError("bernoulli parameter outside [0,1]")
        return DistributionSpec(DistKind.BERNOULLI, p, Fraction(0), Fraction(1),
                                (("p", p),))

    @staticmethod
    def discrete(pairs: List[Tuple[RationalLike, RationalLike]]) -> "DistributionSpec":
        vals = [(rat(v), rat(p)) for v, p in pairs]
        if not vals:
            raise ValueError("discrete distribution needs at least one outcome")
        total = sum(p for _, p in vals)
        if total != 1:
            raise ValueError(f"discrete probabilities sum to {total}, not 1")
        if any(p < 0 for _, p in vals):
            raise ValueError("negative probability")
        mean = sum(v * p for v, p in vals)
        lo = min(v for v, _ in vals)
        hi = max(v for v, _ in vals)
        return DistributionSpec(DistKind.DISCRETE, mean, lo, hi,
                                (("values", tuple(vals)),))

    @staticmethod
    def custom(sampler: str, mean: RationalLike,
               support_lo: Optional[RationalLike],
               support_hi: Optional[RationalLike]) -> "DistributionSpec":
        lo = rat(support_lo) if support_lo is not None else None
        hi = rat(support_hi) if support_hi is not None else None
        return DistributionSpec(DistKind.CUSTOM, rat(mean), lo, hi,
                                (("sampler", sampler),))

    # -- sampling ------------------------------------------------------

    def drawer(self) -> Callable[[object], Tuple[int, int]]:
        """The draw procedure `rng -> (numerator, denominator > 0)`, with
        the parameters read once, as integers; the value is not
        necessarily in lowest terms.

        `rng` is a numpy Generator. A uniform, Bernoulli or discrete draw
        reads one raw 64-bit word w of its bit generator and takes the
        exact ratio m / 2**53 with m = w >> 11, the value `rng.random()`
        would return for that word, so comparisons against exact
        probabilities are made in integers and no float is built. Normals
        use the Generator's ziggurat method, the fixed, versioned
        algorithm the statistical tests assume, and custom samplers get
        the Generator; both read the same word stream, and their floats
        are read exactly through `float.as_integer_ratio`. A custom kind
        looks its sampler up at each draw, so an unregistered one raises
        `KeyError` only when it is drawn.
        """
        if self.kind is DistKind.NORMAL:
            mean, stddev = float(self.param("mean")), float(self.param("stddev"))
            return lambda rng: rng.normal(mean, stddev).as_integer_ratio()
        if self.kind is DistKind.UNIFORM:
            lo, hi = self.param("lo"), self.param("hi")
            # lo + (hi - lo) * m / 2**53 over the denominator ld * hd * 2**53
            ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
            base, width, den = ln * hd << UNIT_BITS, hn * ld - ln * hd, ld * hd << UNIT_BITS

            def uniform(rng):
                return base + width * (rng.bit_generator.random_raw() >> 11), den
            return uniform
        if self.kind is DistKind.BERNOULLI:
            pn, pd = self.param("p").numerator << UNIT_BITS, self.param("p").denominator

            def bernoulli(rng):
                return (1 if (rng.bit_generator.random_raw() >> 11) * pd < pn else 0), 1
            return bernoulli
        if self.kind is DistKind.DISCRETE:
            # (cumulative probability times 2**53, its denominator, value) as
            # integers; m / 2**53 < 1 falls below the final sum 1, so the
            # last value is only a guard
            table, acc = [], Fraction(0)
            for v, p in self.param("values"):
                acc += p
                table.append((acc.numerator << UNIT_BITS, acc.denominator,
                              v.numerator, v.denominator))
            last = table[-1][2:]

            def discrete(rng):
                m = rng.bit_generator.random_raw() >> 11
                for cn, cd, vn, vd in table:
                    if m * cd < cn:
                        return vn, vd
                return last
            return discrete
        name = self.param("sampler")

        def custom(rng):
            fn = _SAMPLERS.get(name)
            if fn is None:
                raise KeyError(f"no registered sampler {name!r}")
            return float(fn(rng)).as_integer_ratio()
        return custom

    def draw(self, rng) -> Tuple[int, int]:
        """Draw one value as an integer ratio; see `drawer`."""
        return self.drawer()(rng)

    def sample(self, rng) -> Fraction:
        """Draw one value as an exact rational; see `draw`."""
        return Fraction(*self.draw(rng))

    def pretty(self) -> str:
        scalar = SCALAR_KINDS.get(self.kind)
        if scalar is not None:
            args = ", ".join(str(self.param(name)) for name in scalar.params)
            return f"{scalar.names[0]}({args})"
        if self.kind is DistKind.DISCRETE:
            inner = ", ".join(f"{v}: {p}" for v, p in self.param("values"))
            return f"discrete({inner})"
        return f"custom({self.param('sampler')})"


class ScalarKind(NamedTuple):
    """A distribution kind given by a fixed list of rational parameters."""
    names: Tuple[str, ...]    # its source names; `pretty` writes the first
    params: Tuple[str, ...]   # its parameters, in the order `make` takes them
    make: Callable[..., DistributionSpec]


SCALAR_KINDS: Dict[DistKind, ScalarKind] = {
    DistKind.NORMAL: ScalarKind(("norm", "normal", "gaussian"), ("mean", "stddev"),
                                DistributionSpec.normal),
    DistKind.UNIFORM: ScalarKind(("unif", "uniform"), ("lo", "hi"), DistributionSpec.uniform),
    DistKind.BERNOULLI: ScalarKind(("bern", "bernoulli"), ("p",), DistributionSpec.bernoulli),
}

"""Text formats: monomial ideal files and key-value experiment spec files.

Ideal file: one generator per line as space-separated exponents, ``#``
comments.  Spec file: ``key: value`` lines, ``#`` comments, repeated keys
allowed; `parse_spec` reads them into an ordered key -> list of values map.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

from . import BlockSchedule

if TYPE_CHECKING:
    from .families import GradedFamily
    from .monomial import MonomialIdeal
    from .semigroup import GradedSemigroup
    from .series import MonomialLinearSeries


class SpecError(ValueError):
    """Malformed spec or ideal file."""


# ---------------------------------------------------------------------------
# ideal files
# ---------------------------------------------------------------------------

def parse_ideal_text(text: str) -> MonomialIdeal:
    from .monomial import MonomialIdeal

    gens = []
    width = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            exps = tuple(int(tok) for tok in line.split())
        except ValueError as exc:
            raise SpecError(f"line {lineno}: bad exponent ({exc})") from None
        if width is None:
            width = len(exps)
        elif len(exps) != width:
            raise SpecError(f"line {lineno}: expected {width} exponents")
        gens.append(exps)
    if width is None:
        raise SpecError("ideal has no generators")
    return MonomialIdeal(width, tuple(gens))


def load_ideal(path: str | Path) -> MonomialIdeal:
    return parse_ideal_text(Path(path).read_text())


# ---------------------------------------------------------------------------
# key-value spec files
# ---------------------------------------------------------------------------

def parse_spec(text: str) -> dict[str, list[str]]:
    """Ordered key -> list of values; repeated keys accumulate in order."""
    out: dict[str, list[str]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise SpecError(f"line {lineno}: expected 'key: value'")
        key, value = line.split(":", 1)
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise SpecError(f"line {lineno}: empty key or value")
        out.setdefault(key, []).append(value)
    return out


def load_spec(path: str | Path) -> dict[str, list[str]]:
    return parse_spec(Path(path).read_text())


def _single(spec: dict, key: str, default=None):
    values = spec.get(key)
    if not values:
        return default
    if len(values) > 1:
        raise SpecError(f"key '{key}' given more than once")
    return values[0]


def _int_value(text: str, source: str) -> int:
    """``int(text)``; a malformed value names its ``source`` key or flag."""
    try:
        return int(text)
    except ValueError:
        raise SpecError(f"{source}: {text!r} is not an integer") from None


def _int(spec: dict, key: str, default=None):
    v = _single(spec, key)
    return default if v is None else _int_value(v, f"spec key '{key}'")


def _choice(spec: dict, key: str, choices: tuple[str, ...]) -> str | None:
    """The key's value, or None when absent; any value not in ``choices`` is
    refused."""
    v = _single(spec, key)
    if v is not None and v not in choices:
        raise SpecError(f"spec key '{key}': {v!r} is not {' or '.join(choices)}")
    return v


def rational(text: str, source: str | None = None) -> Fraction:
    """Parse an exact rational such as ``3/2`` or ``0.02``; a malformed
    value names its ``source`` key when one is given."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        where = f"{source}: " if source else ""
        raise SpecError(f"{where}bad rational {text!r}: {exc}") from None


def _fraction(spec: dict, key: str, default=None):
    v = _single(spec, key)
    return default if v is None else rational(v, f"spec key '{key}'")


def _int_list(value: str, source: str) -> list[int]:
    """Space- or comma-separated integers of the ``source`` key or flag."""
    return [_int_value(tok, source) for tok in value.replace(",", " ").split()]


def _ideal_from_spec(spec: dict, key: str, base_dir: Path | None) -> MonomialIdeal | None:
    inline = _single(spec, key)
    if inline is not None:
        # the ';'-separated generators are the lines of an ideal file
        try:
            return parse_ideal_text(inline.replace(";", "\n"))
        except SpecError as exc:
            raise SpecError(f"spec key '{key}': {exc}") from None
    ref = _single(spec, key + "_file")
    if ref is not None:
        path = Path(ref)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        return load_ideal(path)
    return None


def _schedule_from_spec(spec: dict, horizon: int) -> BlockSchedule:
    raw = _single(spec, "schedule")
    if raw is None:
        return BlockSchedule.default(max(horizon, 210))
    return BlockSchedule(tuple(_int_list(raw, "spec key 'schedule'")))


def _tset_from_spec(spec: dict):
    raw = _single(spec, "tset", "all")
    parts = raw.split()
    if parts[0] == "all":
        return lambda n: True
    if parts[0] == "mod":
        r = _int_value(parts[1], "spec key 'tset'") if len(parts) > 1 else 0
        if r < 1:
            raise SpecError("tset 'mod r a..' needs a modulus r >= 1")
        return ("mod", r, tuple(_int_value(x, "spec key 'tset'") for x in parts[2:]))
    if parts[0] == "set":
        return frozenset(_int_value(x, "spec key 'tset'") for x in parts[1:])
    raise SpecError("tset must be 'all', 'mod r a..', or 'set n..'")


def build_semigroup(spec: dict) -> GradedSemigroup:
    from .semigroup import GradedSemigroup

    raws = spec.get("generator")
    if not raws:
        raise SpecError("semigroup spec needs 'generator' lines")
    gens = []
    dim = None
    for raw in raws:
        nums = _int_list(raw, "spec key 'generator'")
        if len(nums) < 2:
            raise SpecError("generator needs point coordinates plus a degree")
        vec, deg = tuple(nums[:-1]), nums[-1]
        if dim is None:
            dim = len(vec)
        elif len(vec) != dim:
            raise SpecError("generators have mixed dimensions")
        gens.append((vec, deg))
    return GradedSemigroup(dim, generators=gens)


def build_family(spec: dict, base_dir: Path | None = None,
                 horizon: int = 210) -> GradedFamily:
    from .families import (
        artin_tau_family,
        corrupted_sigma_family,
        nilpair_sigma_family,
        perturbed_power_family,
        power_family,
        saturation_family,
        symbolic_family,
        valuation_family,
    )

    kind = _single(spec, "family")
    if kind is None:
        raise SpecError("family spec needs a 'family' key")
    if kind in ("power", "saturation"):
        ideal = _ideal_from_spec(spec, "ideal", base_dir)
        if ideal is None:
            raise SpecError(f"{kind} family needs an ideal")
        return power_family(ideal) if kind == "power" else saturation_family(ideal)
    if kind == "symbolic":
        ideal = _ideal_from_spec(spec, "ideal", base_dir)
        other = _ideal_from_spec(spec, "jideal", base_dir)
        if ideal is None or other is None:
            raise SpecError("symbolic family needs 'ideal' and 'jideal'")
        return symbolic_family(ideal, other)
    if kind == "valuation":
        raw = _single(spec, "lambda")
        if raw is None:
            raise SpecError("valuation family needs 'lambda'")
        return valuation_family([rational(tok, "spec key 'lambda'") for tok in raw.split()])
    schedule = _schedule_from_spec(spec, horizon)
    if kind == "nilpair_sigma":
        return nilpair_sigma_family(_int(spec, "dim", 1), schedule)
    if kind == "perturbed_power":
        return perturbed_power_family(_int(spec, "dim", 1), schedule)
    if kind == "artin_tau":
        return artin_tau_family(_int(spec, "t", 1), schedule)
    if kind == "corrupted_sigma":
        return corrupted_sigma_family(_int(spec, "dim", 1))
    raise SpecError(f"unknown family kind '{kind}'")


def build_series(spec: dict, horizon: int = 210) -> MonomialLinearSeries:
    from .series import (
        artin_tau_series,
        full_weighted_series,
        log_nil_series,
        nil_hyperplane_series,
        sigma_growth_series,
        tau_pulse_series,
    )

    kind = _single(spec, "series")
    if kind is None:
        raise SpecError("series spec needs a 'series' key")
    if kind == "full":
        weights = tuple(_int_list(_single(spec, "weights", "1 1"), "spec key 'weights'"))
        return full_weighted_series(weights, horizon)
    if kind == "nil_hyperplane":
        return nil_hyperplane_series(_tset_from_spec(spec), _int(spec, "dim", 2), horizon)
    if kind == "log_nil":
        return log_nil_series(_tset_from_spec(spec), horizon)
    if kind == "sigma_growth":
        schedule = _schedule_from_spec(spec, horizon)
        s_raw = _single(spec, "s", "0")
        s = None if s_raw in ("-inf", "-infinity", "none") else _int_value(s_raw, "spec key 's'")
        weights_raw = _single(spec, "weights")
        weights = tuple(_int_list(weights_raw, "spec key 'weights'")) if weights_raw else None
        return sigma_growth_series(s, _int(spec, "r", 1), schedule,
                                   weights, _int(spec, "e", 1), horizon)
    if kind == "tau_pulse":
        schedule = _schedule_from_spec(spec, horizon)
        return tau_pulse_series(schedule, _int(spec, "e", 1), _int(spec, "g", 1), horizon)
    if kind == "artin_tau":
        schedule = _schedule_from_spec(spec, horizon)
        return artin_tau_series(_int(spec, "t", 1), schedule, horizon,
                                with_unit=_choice(spec, "with_unit", ("yes", "no")) == "yes")
    raise SpecError(f"unknown series kind '{kind}'")

"""Weighted composite index definitions and evaluation.

A definition lists components with published weights (any positive scale);
evaluation renormalizes the weights to sum to 1, so presets can carry the
weights exactly as published even when they do not add up to 100 percent.
Definitions nest one level (component -> sub-indicators), and a component's
score may be given directly or derived from its sub-indicator scores.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

from .base import FLOAT_TYPES, real
from .dataset import SCORE_MAX, SCORE_MIN
from .errors import DefinitionError, ValidationError


@dataclass(frozen=True)
class IndexComponent:
    name: str
    weight: float
    sub: "IndexDefinition | None" = None


@dataclass(frozen=True)
class IndexDefinition:
    name: str
    components: tuple[IndexComponent, ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise DefinitionError(f"index {self.name!r} has no components")
        names = [c.name for c in self.components]
        if len(set(names)) != len(names):
            raise DefinitionError(f"index {self.name!r} has duplicate component names")
        for c in self.components:
            # NaN fails the comparison, and an int past the float range reads as inf
            weight = real(c.weight)
            if weight is None or not 0.0 < weight < math.inf:
                raise DefinitionError(f"component {c.name!r} of {self.name!r} has weight "
                                      f"{c.weight!r}, not a positive finite number")
            for inner in c.sub.components if c.sub is not None else ():
                if inner.sub is not None:
                    raise DefinitionError(f"component {inner.name!r} nests deeper than 2 levels")
        # finite weights can still overflow in the sum normalized_weights divides by
        if not math.isfinite(sum(real(c.weight) for c in self.components)):
            raise DefinitionError(f"index {self.name!r} has a non-finite total weight")

    @cached_property
    def normalized_weights(self) -> dict[str, float]:
        """Component weights scaled to sum to 1, computed once per definition;
        every caller shares the one dict, so none may modify it."""
        total = sum(real(c.weight) for c in self.components)
        return {c.name: real(c.weight) / total for c in self.components}

    @cached_property
    def _plan(self) -> tuple[tuple[str, float, IndexComponent], ...]:
        """(name, normalized weight, component) per component, in order: the
        one loop ``compute_composite`` runs, built once per definition."""
        weights = self.normalized_weights
        return tuple((c.name, weights[c.name], c) for c in self.components)


@dataclass(frozen=True)
class IndexScore:
    value: float
    contributions: dict[str, float] = field(default_factory=dict)


def compute_composite(definition: IndexDefinition, scores: Mapping[str, float]) -> IndexScore:
    """Renormalized weighted sum of component scores, with per-component contributions.

    A component's score is read from ``scores`` by its name; only a missing
    name is derived from the component's sub-indicators. Each score must be
    a number (see ``base``) in [0, 100]; a bool, a string, None or a
    sequence is a ``ValidationError`` that names its component."""
    contributions: dict[str, float] = {}
    for name, weight, component in definition._plan:
        if name in scores:
            value = scores[name]
            # float and np.float64 skip the rule of base.real
            if type(value) not in FLOAT_TYPES and (value := real(value)) is None:
                raise ValidationError(f"score for {name!r} is {scores[name]!r}, not a real number")
            value = float(value)
            if not SCORE_MIN <= value <= SCORE_MAX:
                raise ValidationError(f"score for {name!r} is {value!r}, outside [0, 100]")
        elif component.sub is not None:
            value = compute_composite(component.sub, scores).value
        else:
            raise DefinitionError(
                f"no score supplied for component {name!r} of {definition.name!r}")
        contributions[name] = weight * value
    # positional: the frozen dataclass's keyword call costs more per row
    return IndexScore(math.fsum(contributions.values()), contributions)


def parse_definition(text: str, name: str) -> IndexDefinition:
    """Build a definition from declarative text: `component, weight` per line,
    with indented lines forming the previous component's sub-indicators."""
    top: list[tuple[str, float, list[IndexComponent]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        indented = raw[0] in (" ", "\t")
        head, sep, tail = raw.strip().rpartition(",")
        if not sep:
            raise DefinitionError(f"line {lineno}: expected 'name, weight', got {raw.strip()!r}")
        try:
            weight = float(tail)
        except ValueError:
            raise DefinitionError(f"line {lineno}: bad weight {tail.strip()!r}") from None
        component_name = head.strip()
        if not component_name:
            raise DefinitionError(f"line {lineno}: empty component name")
        if indented:
            if not top:
                raise DefinitionError(f"line {lineno}: sub-component before any component")
            top[-1][2].append(IndexComponent(component_name, weight))
        else:
            top.append((component_name, weight, []))
    components = tuple(
        IndexComponent(
            n, w,
            sub=IndexDefinition(n, tuple(subs)) if subs else None,
        )
        for n, w, subs in top
    )
    return IndexDefinition(name=name, components=components)


_PRESET_TEXTS = {
    "sii-2016": """\
Policy and institutional framework, 44.44
  Existence of national policy on social innovation, 25
  Social innovation research and impact, 20
  Legal framework for social enterprises, 20
  Effectiveness of system in policy implementation, 20
  The rule of law, 15
Financing, 22.22
  Availability of government financing to promote social innovation, 50
  Ease of getting credit, 25
  Total public social expenditure, 25
Entrepreneurship, 15
  Risk-taking mind-set, 25
  Citizens' attitude towards entrepreneurship, 25
  Ease of starting a business, 25
  Development of clusters, 25
Society, 18.33
  Culture of volunteerism, 20
  Political participation, 20
  Civil society engagement, 20
  Trust in society, 20
  Press freedom, 20
""",
    "idesi-2020": """\
Connectivity, 0.25
Human capital, 0.25
Use of the internet, 0.15
Integration of digital technology, 0.2
Digital public services, 0.15
""",
}


def preset(name: str) -> IndexDefinition:
    """A built-in index definition by preset name."""
    if name not in _PRESET_TEXTS:
        raise DefinitionError(
            f"unknown preset {name!r}; available: {', '.join(sorted(_PRESET_TEXTS))}"
        )
    return parse_definition(_PRESET_TEXTS[name], name=name)


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(_PRESET_TEXTS))

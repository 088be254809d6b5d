import math

import numpy as np
import pytest

from indexlab import (
    DefinitionError,
    IndexComponent,
    IndexDefinition,
    ValidationError,
    compute_composite,
    parse_definition,
    preset,
    preset_names,
)
from indexlab.dataset import DIMENSIONS, IDESI, PILLARS, SII


def test_presets_available():
    assert set(preset_names()) == {"sii-2016", "idesi-2020"}
    with pytest.raises(DefinitionError):
        preset("nope")


def _composite(dataset, country, preset_name, components):
    row = dataset.array(components)[dataset.countries.index(country)]
    return compute_composite(preset(preset_name), dict(zip(components, row))).value


def test_sii_from_pillars_reference(dataset):
    value = _composite(dataset, "USA", "sii-2016", PILLARS)
    assert abs(value - 79.43678367836783) < 1e-12
    value = _composite(dataset, "Denmark", "sii-2016", PILLARS)
    assert abs(value - 71.21299129912991) < 1e-12


def test_idesi_reference(dataset):
    value = _composite(dataset, "China", "idesi-2020", DIMENSIONS)
    assert abs(value - 34.25) < 1e-12


def test_reconstruction_matches_published(dataset):
    published = dataset.array([SII, IDESI]).tolist()
    for country, (sii, idesi) in zip(dataset.countries, published):
        assert abs(_composite(dataset, country, "sii-2016", PILLARS) - sii) <= 0.1, country
        assert abs(_composite(dataset, country, "idesi-2020", DIMENSIONS) - idesi) <= 1.0, country


def test_sii_weights_normalized():
    definition = preset("sii-2016")
    weights = definition.normalized_weights
    assert abs(sum(weights.values()) - 1.0) < 1e-12
    assert abs(weights["Policy and institutional framework"] - 44.44 / 99.99) < 1e-12
    assert abs(weights["Society"] - 18.33 / 99.99) < 1e-12


def test_idesi_weights():
    weights = preset("idesi-2020").normalized_weights
    assert weights["Connectivity"] == 0.25
    assert weights["Integration of digital technology"] == 0.2
    assert abs(sum(weights.values()) - 1.0) < 1e-12


def test_nested_indicator_evaluation():
    # a flat score on every leaf indicator must propagate unchanged
    definition = preset("sii-2016")
    scores = {}
    for component in definition.components:
        for indicator in component.sub.components:
            scores[indicator.name] = 50.0
    result = compute_composite(definition, scores)
    assert abs(result.value - 50.0) < 1e-12
    assert set(result.contributions) == {c.name for c in definition.components}


def test_compute_composite_validation():
    definition = preset("idesi-2020")
    good = {name: 50.0 for name in DIMENSIONS}
    assert compute_composite(definition, good).value == 50.0
    with pytest.raises(ValidationError):
        compute_composite(definition, {**good, "Connectivity": 101.0})
    missing = dict(good)
    del missing["Connectivity"]
    with pytest.raises(DefinitionError, match="no score supplied"):
        compute_composite(definition, missing)


def _oracle(definition, scores):
    """The composite as the fsum of weight x score, each weight the published
    one over the definition's total; a component without a score is the
    composite of its sub-indicators."""
    total = sum(c.weight for c in definition.components)
    return math.fsum(
        c.weight / total * (float(scores[c.name]) if c.name in scores
                            else _oracle(c.sub, scores))
        for c in definition.components)


def test_compute_composite_matches_fsum_oracle():
    """Bit for bit, on random direct scores of both presets (as floats and
    as numpy floats), on the SII preset's nested sub-indicator scores, and on
    mixed rows where some pillars are given and the rest derived."""
    rng = np.random.default_rng(17)
    sii, idesi = preset("sii-2016"), preset("idesi-2020")
    indicators = [inner.name for c in sii.components for inner in c.sub.components]
    rows = []
    for definition, names in ((sii, PILLARS), (idesi, DIMENSIONS)):
        for values in rng.uniform(0.0, 100.0, (200, len(names))):
            rows.append((definition, dict(zip(names, values))))
            rows.append((definition, dict(zip(names, values.tolist()))))
    for values in rng.uniform(0.0, 100.0, (200, len(indicators))):
        nested = dict(zip(indicators, values.tolist()))
        rows.append((sii, nested))
        given = rng.permutation(PILLARS)[:int(rng.integers(1, len(PILLARS)))]
        rows.append((sii, {**nested, **{p: float(rng.uniform(0.0, 100.0)) for p in given}}))
    for definition, scores in rows:
        result = compute_composite(definition, scores)
        assert result.value == _oracle(definition, scores), scores
        assert list(result.contributions) == [c.name for c in definition.components]
        assert math.fsum(result.contributions.values()) == result.value


def test_compute_composite_rejects_non_numeric_scores():
    definition = preset("idesi-2020")
    good = {name: 50.0 for name in DIMENSIONS}
    # a bool is an int and a string converts with float(); neither is a score
    for bad in (None, [50.0], (50.0,), np.array([50.0]), True, np.bool_(False), "50"):
        with pytest.raises(ValidationError, match="score for 'Connectivity' is .* not a real"):
            compute_composite(definition, {**good, "Connectivity": bad})
    # a nested component's score is checked the same way
    sii = preset("sii-2016")
    indicators = {inner.name: 50.0 for c in sii.components for inner in c.sub.components}
    with pytest.raises(ValidationError, match="'The rule of law' is '15', not a real number"):
        compute_composite(sii, {**indicators, "The rule of law": "15"})
    for fine in (50, np.int64(50), np.float32(50.0), np.float64(50.0)):
        assert compute_composite(definition, {**good, "Connectivity": fine}).value == 50.0


def test_definition_validation():
    with pytest.raises(DefinitionError, match="has no components"):
        IndexDefinition(name="empty", components=())
    with pytest.raises(DefinitionError, match="weight"):
        IndexDefinition(name="neg", components=(IndexComponent("a", -1.0),))
    with pytest.raises(DefinitionError, match="duplicate"):
        IndexDefinition(name="dup", components=(
            IndexComponent("a", 1.0), IndexComponent("a", 2.0)))
    two_level = IndexDefinition("mid", (
        IndexComponent("leaf", 1.0,
                       sub=IndexDefinition("inner", (IndexComponent("x", 1.0),))),))
    with pytest.raises(DefinitionError, match="deeper"):
        IndexDefinition(name="deep", components=(
            IndexComponent("top", 1.0, sub=two_level),))


def test_parse_definition_round_trip():
    text = "alpha, 2\nbeta, 1\n  b1, 50\n  b2, 50\n"
    definition = parse_definition(text, name="demo")
    assert [c.name for c in definition.components] == ["alpha", "beta"]
    assert definition.components[1].sub.components[0].name == "b1"
    value = compute_composite(definition, {"alpha": 30.0, "b1": 60.0, "b2": 90.0})
    # alpha weight 2/3, beta = mean(60, 90) = 75 at weight 1/3
    assert abs(value.value - (30.0 * 2 + 75.0) / 3) < 1e-12


def test_parse_definition_errors():
    with pytest.raises(DefinitionError, match="expected"):
        parse_definition("alpha\n", name="bad")
    with pytest.raises(DefinitionError, match="bad weight"):
        parse_definition("alpha, heavy\n", name="bad")
    with pytest.raises(DefinitionError, match="empty component name"):
        parse_definition(", 5\n", name="bad")


@pytest.mark.parametrize("text, message", [
    ("a, inf\nb, 1", "component 'a' of 'x' has weight inf, not a positive finite number"),
    ("a, 1e308\nb, 1e308", "index 'x' has a non-finite total weight"),
])
def test_parse_definition_rejects_weights_that_overflow(text, message):
    with pytest.raises(DefinitionError, match=message):
        parse_definition(text, "x")

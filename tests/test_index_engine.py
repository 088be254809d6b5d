import math

import pytest

from indexlab import (
    DefinitionError,
    DegenerateDataError,
    IndexComponent,
    IndexDefinition,
    ValidationError,
    compute_composite,
    min_max_normalize,
    parse_definition,
    preset,
    preset_names,
    rank,
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


def test_min_max_normalize():
    assert min_max_normalize([5.0, 10.0, 15.0], 5.0, 15.0) == [0.0, 50.0, 100.0]
    # values beyond the bounds clamp to the scale ends
    assert min_max_normalize([2.0, 20.0], 5.0, 15.0) == [0.0, 100.0]
    with pytest.raises(DegenerateDataError):
        min_max_normalize([1.0, 2.0], 5.0, 5.0)
    for lo, hi in ((-math.inf, 10.0), (0.0, math.inf), (math.nan, 10.0), (0.0, math.nan)):
        with pytest.raises(DegenerateDataError):
            min_max_normalize([5.0], lo, hi)


def test_rank_published(dataset):
    ranked = rank(dataset, SII)
    assert ranked[0] == (1, "USA", 79.4)
    assert ranked[1] == (2, "UK", 77.3)
    by_idesi = rank(dataset, IDESI)
    assert by_idesi[0] == (1, "Denmark", 65.0)


def test_rank_competition_ties():
    from indexlab import Dataset

    ranked = rank(Dataset(("s",), "ABCD", [[10.0], [8.0], [8.0], [7.0]]), "s")
    assert [(r, name) for r, name, _ in ranked] == [
        (1, "A"), (2, "B"), (2, "C"), (4, "D")]

import numpy as np
import pytest

import _criteria
from indexlab import Dataset, bundled_table_a1, diff_golden, regression, reproduce_all


def pytest_terminal_summary(terminalreporter):
    if not _criteria.RESULTS:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria")
    for _, line in sorted(_criteria.RESULTS):
        terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def fresh_draw():
    """Empty the kept Durbin-Watson draw before each test, so that a test
    that compares two draws, or measures one, scores real draws and not one
    draw read twice; and after it, so that no draw a test kept reaches a
    session fixture."""
    regression._kept_draw.cache_clear()
    yield
    regression._kept_draw.cache_clear()


@pytest.fixture(scope="session")
def dataset():
    return bundled_table_a1()


@pytest.fixture(scope="session")
def sorted_dataset(dataset):
    return dataset.sorted_by_name()


@pytest.fixture(scope="session")
def bundle(dataset):
    # full bootstrap depth: the published p-values are quoted at 10,000 replicates
    return reproduce_all(dataset, seed=42, replicates=10_000)


@pytest.fixture(scope="session")
def golden_diff(bundle):
    return diff_golden(bundle)


@pytest.fixture(scope="session")
def degenerate_designs():
    """Response y with three predictors p1..p3 whose design is rank deficient,
    keyed by how: p3 duplicates p1, p3 = 0.5 p1 + 0.25 p2, or p2 is constant."""
    rng = np.random.default_rng(7)
    n = 20
    y, a = rng.normal(50.0, 5.0, n), rng.normal(50.0, 5.0, n)
    b = rng.normal(40.0, 6.0, n)
    designs = {
        "duplicate": (a, b, a.copy()),
        "linear_combination": (a, b, 0.5 * a + 0.25 * b),
        "constant": (a, np.full(n, 50.0), b),
    }
    countries = [f"C{i:02d}" for i in range(n)]
    return {kind: Dataset(("y", "p1", "p2", "p3"), countries, np.column_stack([y, *cols]))
            for kind, cols in designs.items()}

"""The public surface: the README's example runs, and the package exports
exactly the names it defines."""
import re
import types
from pathlib import Path

import pytest

import indexlab

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text("utf-8"), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out


def test_every_exported_name_resolves():
    assert len(set(indexlab.__all__)) == len(indexlab.__all__)
    namespace = {}
    exec("from indexlab import *", namespace)
    assert set(indexlab.__all__) <= set(namespace)


def test_exports_hold_no_module_and_no_private_name():
    assert not [name for name in indexlab.__all__
                if isinstance(getattr(indexlab, name), types.ModuleType)]
    assert [name for name in indexlab.__all__ if name.startswith("_")] == ["__version__"]


@pytest.mark.parametrize("name", ["OLS", "StepwiseOLS", "CountryRecord", "NotFittedError",
                                  "collinearity", "CollinearityReport", "anova", "rank",
                                  "min_max_normalize", "prediction_record"])
def test_removed_names_are_not_exported(name):
    assert name not in indexlab.__all__
    assert not hasattr(indexlab, name)

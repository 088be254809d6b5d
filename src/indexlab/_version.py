"""Single source for the package version: pyproject.toml reads this literal."""
__version__ = "0.1.0"

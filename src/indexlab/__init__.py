"""Composite index construction and regression analysis toolkit.

Builds weighted composite indices from published component weights and
reproduces a complete published regression analysis: descriptive statistics,
Shapiro-Wilk normality, simple/multiple/stepwise least squares with
Durbin-Watson and collinearity diagnostics, principal component analysis,
correlation matrices, and a golden-diff harness against the published tables.
"""
from types import ModuleType as _ModuleType

from ._version import __version__
from .correlation import (
    CorrelationMatrix,
    CorrelationResult,
    correlation_matrix,
    pearson,
    significance_stars,
)
from .dataset import (
    DIMENSIONS,
    IDESI,
    PILLARS,
    SII,
    Dataset,
    bundled_table_a1,
    emit_dataset,
    parse_dataset,
)
from .descriptive import (
    DescriptiveStats,
    NormalityResult,
    boxplot_outliers,
    describe,
    shapiro_wilk,
    tukey_hinges,
)
from .distributions import (
    PValue,
    chi2_tail_p,
    f_tail_p,
    normal_cdf,
    normal_quantile,
    regularized_beta,
    regularized_gamma_q,
    t_two_tailed_p,
)
from .errors import (
    ColumnLookupError,
    DatasetParseError,
    DefinitionError,
    DegenerateDataError,
    DomainError,
    IndexLabError,
    InsufficientDataError,
    SingularDesignError,
    ValidationError,
)
from .golden import CellResult, GoldenCell, GoldenDiff, diff_golden, golden_cells, render_diff
from .index_engine import (
    IndexComponent,
    IndexDefinition,
    IndexScore,
    compute_composite,
    parse_definition,
    preset,
    preset_names,
)
from .pca import HypothesisTestResult, PcaResult, bartlett_sphericity, eigen_symmetric, kmo
from .pca import principal_components, run_pca
from .regression import (
    AnovaBlock,
    CasewiseDiagnostics,
    DurbinWatsonResult,
    LinearModelFit,
    StepwiseStep,
    casewise_diagnostics,
    durbin_watson,
    fit_ols,
    null_model,
    predict,
    stepwise_fit,
)
from .report import (
    ReportBundle,
    emit,
    figure_file_text,
    predict_country,
    reproduce_all,
    validate_schema,
    write_figures,
)

# every name imported above, and none of the submodules those imports bind
__all__ = ["__version__", *sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType))]

"""Harm-subgroup discovery for mediated treatment effects.

Identifies subgroups predicted to experience harmful indirect (mediated)
treatment effects and estimates population interventional direct, indirect
and total effects under the resulting hypothetical treatment decision, using
cross-fitted, multiply robust efficient-influence-function estimation. An
exact-enumeration oracle over discrete structural equation models backs every
estimator at desk scale.
"""
__version__ = "0.1.0"

from .data import (  # noqa: F401
    ColumnSchema,
    Dataset,
    WeightVector,
    feature_block,
    normalize_weights,
    read_csv,
    validate_dataset,
)
from .crossfit import CrossFitPlan, crossfit_predict, make_plan  # noqa: F401
from .oracle import (  # noqa: F401
    DiscreteDGP,
    PopulationEffects,
    TrueNuisances,
    derive_true_nuisances,
    enumerated_blip_transform_mean,
    enumerated_transform_mean,
    expected_counterfactual,
    positivity_margin,
    sign_rule,
    simulate,
    true_blip,
    true_population_effects,
)
from .learners import (  # noqa: F401
    AdaptiveLassoModel,
    StackedEnsemble,
    fit_adaptive_lasso,
    fit_learner,
    fit_stack,
    make_learner,
)
from .eif import (  # noqa: F401
    NuisanceConfig,
    NuisanceFits,
    PseudoOutcomes,
    fit_nuisances,
    pseudo_contrast,
    shift_weight_values,
)
from .subgroup import (  # noqa: F401
    BlipModel,
    SubgroupAssignment,
    assign_subgroup,
    fit_blip,
    subgroup_summary,
)
from .effects import (  # noqa: F401
    EffectEstimate,
    RuleSpec,
    constant_rule,
    effect_table,
    estimate_effect,
    estimated_rule,
)
from .report import RunConfig, load_config, run_pipeline  # noqa: F401
from .plot import render_forest_plot  # noqa: F401

import time
from dataclasses import dataclass

import pytest

from medrule import (
    NuisanceConfig,
    assign_subgroup,
    constant_rule,
    effect_table,
    fit_blip,
    fit_nuisances,
    make_plan,
    pseudo_contrast,
    simulate,
)
from medrule.dgps import crossover_dgp, null_mediation_dgp, rich_support_dgp


@pytest.fixture(scope="session")
def crossover():
    return crossover_dgp()


@pytest.fixture(scope="session")
def null_dgp():
    return null_mediation_dgp()


@pytest.fixture(scope="session")
def rich():
    return rich_support_dgp()


@pytest.fixture(scope="session")
def all_dgps(crossover, null_dgp, rich):
    return {"crossover": crossover, "null_mediation": null_dgp,
            "rich_support": rich}


@dataclass
class BigRun:
    """One n=20000 crossover-DGP estimation shared across test modules."""
    dgp: object
    dataset: object
    plan: object
    fits: object
    pseudo: object
    stack_assignment: object
    elapsed: float


@pytest.fixture(scope="session")
def big_run(crossover):
    t0 = time.time()
    dataset = simulate(crossover, 20000, seed=11)
    plan = make_plan(dataset.n, 5, seed=7)
    fits = fit_nuisances(dataset, plan,
                         NuisanceConfig(stack=("mean", "glm", "glm_sat"), seed=3))
    pseudo = pseudo_contrast(dataset, fits)
    blip = fit_blip(pseudo, dataset, plan, method="stack",
                    stack=("mean", "glm"), seed=5)
    assignment = assign_subgroup(blip, dataset)
    # touch every contrast arm so the fixture timing covers the full pipeline
    effect_table(dataset, pseudo, [constant_rule(1)], ("piie", "pite"))
    elapsed = time.time() - t0
    return BigRun(dgp=crossover, dataset=dataset, plan=plan, fits=fits,
                  pseudo=pseudo, stack_assignment=assignment, elapsed=elapsed)

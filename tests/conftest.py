import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from fungible import condition_from_label, fit_ml  # noqa: E402

LABELS = ("Sigma1", "Sigma2", "Sigma3", "Sigma4")


@pytest.fixture(scope="session")
def conditions():
    return {label: condition_from_label(label) for label in LABELS}


@pytest.fixture(scope="session")
def popfits(conditions):
    """Population fits (analyzed at N=200) of every builtin condition."""
    return {
        label: fit_ml(cond.model, cond.sigma_pop, n=200)
        for label, cond in conditions.items()
    }


@pytest.fixture(scope="session")
def focal(conditions):
    names = conditions["Sigma1"].model.theta_names
    return (names.index("gamma1"), names.index("gamma2"))

import numpy as np
import pytest

from dnls_nnn import ModelParams, compute_manifold_pair, symmetric_search

# the worked example cell used throughout: small coupling, mid-window weight
EPS_ILL = 0.0004
A_ILL = -0.125

# image of the symmetric intersection there (frozen from a converged run;
# the parametrization gauge may drift, the image point must not)
POINT_ILL = np.array([
    9.23324715725e-3,
    1.32738452775e-2,
    1.32738452775e-2,
    9.23324715725e-3,
])


@pytest.fixture(scope="session")
def p_ill():
    return ModelParams(EPS_ILL, A_ILL)


@pytest.fixture(scope="session")
def pair_ill(p_ill):
    return compute_manifold_pair(p_ill, order=80)


@pytest.fixture(scope="session")
def sols_ill(pair_ill):
    Ps, _ = pair_ill
    return symmetric_search(Ps)


# verdict lines recorded by the acceptance suite; emitted after the run so
# they land on the real terminal regardless of capture mode
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(set(ACCEPTANCE_LINES)):
            terminalreporter.write_line(line)

import numpy as np
import scipy.sparse as sp

from radda import CareProblem, make_example1

#: one "PASS criterion N: ..." / "FAIL criterion N: ..." line per
#: acceptance check, echoed after the run summary where output capture
#: cannot swallow them
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance gate")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def random_stable_problem(rng, n, mp=1, scale=0.1):
    """Random banded problem with A pushed into the open left half-plane.

    Off-diagonal bands are uniform in [-1, 1]; the diagonal is set to
    -(2 + row abs-sum), so every Gershgorin disk sits left of Re = -2.
    """
    A = sp.lil_matrix((n, n))
    for k in (-2, -1, 1, 2):
        A.setdiag(rng.uniform(-1.0, 1.0, n - abs(k)), k)
    rowsum = np.abs(A.toarray()).sum(axis=1)
    A.setdiag(-(2.0 + rowsum))
    B = scale * rng.standard_normal((n, mp))
    C = scale * rng.standard_normal((mp, n))
    return CareProblem(A.tocsr(), B, C)


def uneven_problem():
    """p = 1 output, m = 2 inputs, so the D and P sides differ in width."""
    base = random_stable_problem(np.random.default_rng(5), 20, mp=2)
    return CareProblem(base.A, base.B, base.C[:1])


def unstable_problem(n=64):
    """The first example family moved right by 13 I: every eigenvalue of A
    has real part +1, so the doubling iterates grow without bound."""
    p = make_example1(n)
    return CareProblem((p.A + 13.0 * sp.identity(n)).tocsr(), p.B, p.C)


def scalar_problem(a=-1.0, b=1.0, c=1.0):
    return CareProblem(np.array([[a]]), np.array([[b]]), np.array([[c]]))


def convection_diffusion_problem(rng, N, conv=10.0):
    """Centred-difference 2D convection-diffusion on an N x N interior
    grid of the unit square, with velocity (x, y) scaled by conv.

    A = (I(x)T + T(x)I)/h^2 - conv diag(x)(I(x)D) - conv diag(y)(D(x)I),
    h = 1/(N+1), T = tridiag(1, -2, 1), D = tridiag(-1, 0, 1)/(2h);
    B (n x 1) and C (1 x n) are standard normal.  The spectrum spreads
    over about 4/h^2 : 2 pi^2, so the norm shift sits far above the best
    single shift.
    """
    h = 1.0 / (N + 1)
    eye = sp.identity(N, format="csr")
    T = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(N, N))
    D = sp.diags([-1.0, 0.0, 1.0], [-1, 0, 1], shape=(N, N)) / (2.0 * h)
    grid = h * np.arange(1, N + 1)
    x = np.tile(grid, N)
    y = np.repeat(grid, N)
    A = ((sp.kron(eye, T) + sp.kron(T, eye)) / h ** 2
         - conv * sp.diags(x) @ sp.kron(eye, D)
         - conv * sp.diags(y) @ sp.kron(D, eye))
    n = N * N
    return CareProblem(A.tocsr(), rng.standard_normal((n, 1)),
                       rng.standard_normal((1, n)))

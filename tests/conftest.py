import ctypes

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

import fqlab
from fqlab import harness
from fqlab.mdp import Policy

# property tests replay the same examples on every run (no example database,
# no wall-clock deadline), so a loaded machine can neither flake nor shift them
settings.register_profile("fqlab", deadline=None, derandomize=True, database=None)
settings.load_profile("fqlab")


class SoftmaxPolicy(Policy):
    """State-dependent policy: action probabilities softmax(s @ w + c)."""

    def __init__(self, w, c):
        self.w, self.c = w, c

    def probs(self, states):
        logits = states @ self.w + self.c
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)


@pytest.fixture(scope="session")
def softmax_policy():
    """The SoftmaxPolicy class, for tests that draw random policies."""
    return SoftmaxPolicy


_BLAS_THREAD_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads", "scipy_openblas_get_num_threads")


def _blas_thread_counts():
    counts = []
    for lib in harness._openblas_libraries():
        getter = next((getattr(lib, name) for name in _BLAS_THREAD_GETTERS
                       if hasattr(lib, name)), None)
        if getter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            counts.append(getter())
    return counts


@pytest.fixture(scope="session")
def blas_thread_counts():
    """blas_thread_counts(): the thread count of every mapped OpenBLAS
    library that reports one."""
    return _blas_thread_counts


def _flip(raw: bytes, bit: int) -> bytes:
    out = bytearray(raw)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def _overwrite(raw: bytes, slot: int, value: float) -> bytes:
    start = 16 + 8 * slot  # past the 16-byte magic/version header
    return raw[:start] + np.array([value], dtype="<f8").tobytes() + raw[start + 8:]


@pytest.fixture(scope="session")
def damaged_records():
    """damaged_records(raw): a strategy for the binary record raw truncated,
    padded with arbitrary bytes, with one bit flipped, or with one float64 of
    its payload set to an arbitrary value."""
    return lambda raw: st.one_of(
        st.integers(0, len(raw) - 1).map(lambda k: raw[:k]),
        st.binary(min_size=1, max_size=64).map(lambda pad: raw + pad),
        st.integers(0, 8 * len(raw) - 1).map(lambda bit: _flip(raw, bit)),
        st.builds(_overwrite, st.just(raw), st.integers(0, (len(raw) - 16) // 8 - 1),
                  st.floats()))


@pytest.fixture(scope="session")
def chain_mdp():
    return fqlab.make_chain_mdp(n_states=5, gamma=0.9, n_actions=11, noise=0.1)


@pytest.fixture(scope="session")
def uniform_pi(chain_mdp):
    return fqlab.UniformPolicy(chain_mdp.n_actions)


@pytest.fixture(scope="session")
def chain_oracle_pi(chain_mdp, uniform_pi):
    return fqlab.ground_truth(fqlab.build_oracle(chain_mdp), uniform_pi)


@pytest.fixture(scope="session")
def chain_oracle_star(chain_mdp):
    return fqlab.ground_truth(fqlab.build_oracle(chain_mdp), None)


@pytest.fixture(scope="session")
def two_state_mdp():
    # hand-checkable embedded chain: action-independent kernel, per-node rewards
    return fqlab.make_finite_mdp(
        matrix=[[0.9, 0.1], [0.2, 0.8]], node_rewards=[0.2, 0.8], gamma=0.9,
        n_actions=2, noise=0.0)


@pytest.fixture(scope="session")
def compact_arch():
    return fqlab.ArchitectureSpec(height=2, width=24, sparsity=10**6, weight_bound=8.0)


@pytest.fixture(scope="session")
def fast_train():
    return fqlab.TrainConfig(epochs=40, restarts=1, learning_rate=1.5,
                             batch_size=1024, seed=0)

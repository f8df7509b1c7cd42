import numpy as np
import pytest
from hypothesis import settings

import fqlab
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

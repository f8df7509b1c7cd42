"""The names fqlab exports from its package root.

Any name that joins or leaves fqlab/__init__.py must be added to or removed
from PUBLIC_NAMES here, so that a change of the public surface shows up as
a reviewed diff.
"""
import types

import fqlab

PUBLIC_NAMES = """
ArchitectureSpec BesovParams CellRecord ExperimentConfig FiniteChainKernel
FiniteFunctionClass FixedActionPolicy FqiTrace FunctionOnGrid
GreedyPolicy GridOracle NetworkFunctionClass OfflineDataset Policy
RateExponents ReluNetwork SubRootSpec SyntheticMdp TrainConfig
TrainingDiverged TruncatedGaussianKernel UniformPolicy apply_bellman
architecture_for audit_decomposition besov_seminorm build_oracle
decomposition_bound diagnose_dynamic_closure empirical_rademacher
estimate_concentration estimate_smoothness_exponent fit_least_squares
ground_truth localized_rademacher make_chain_mdp
make_finite_mdp make_gaussian_mdp make_rough_reward_mdp make_single_state_mdp
mdp_from_config measure_bellman_residuals modulus_of_smoothness
rate_exponent run_exact_lsvi run_lsvi run_sweep sample_visitation
sub_root_fixed_point subopt synth_function tabulate_visitation
translation_difference write_report
""".split()


def test_package_root_exports_exactly_the_pinned_names():
    # submodules become package attributes once imported, so they are not counted
    exported = {name for name, value in vars(fqlab).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(exported) == sorted(PUBLIC_NAMES)

"""Desk-scale laboratory for offline fitted-Q iteration with constrained deep
ReLU networks on synthetic continuous MDPs, plus the numerical machinery to
exercise the surrounding convergence theory."""

from .besov import (BesovParams, FunctionOnGrid, besov_seminorm, diagnose_dynamic_closure,
                    estimate_smoothness_exponent, modulus_of_smoothness, synth_function,
                    translation_difference)
from .fqi import (FqiConfig, FqiTrace, greedy_policy, decomposition_bound,
                  measure_bellman_residuals, run_exact_lsvi, run_lsvi)
from .harness import (CellRecord, ExperimentConfig, audit_decomposition, run_sweep,
                      write_report)
from .mdp import (FiniteChainKernel, FixedActionPolicy, GreedyPolicy, OfflineDataset,
                  Policy, SyntheticMdp, TruncatedGaussianKernel, UniformPolicy,
                  make_chain_mdp, make_finite_mdp, make_gaussian_mdp,
                  make_rough_reward_mdp, make_single_state_mdp, mdp_from_config,
                  sample_visitation)
from .oracle import (GridOracle, apply_bellman, build_oracle, estimate_concentration,
                     ground_truth, oracle_value, subopt, tabulate_visitation)
from .rademacher import (FiniteFunctionClass, NetworkFunctionClass, RateExponents,
                         SubRootSpec, empirical_rademacher, localized_rademacher,
                         rate_exponent, sub_root_fixed_point)
from .relunet import (ArchitectureSpec, ReluNetwork, TrainConfig, TrainingDiverged,
                      architecture_for, fit_least_squares)

__version__ = "0.1.0"

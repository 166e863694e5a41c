"""Finite permutation groups and the subgroup classes cut out by a partition
of the primes: solubility and nilpotency relative to the partition,
permutability with Hall subgroups, and transitivity of that permutability —
plus a verification harness exercising the covering-subgroup statements on a
builtin corpus of concrete groups.
"""

from .errors import (CapacityError, DEFAULT_LIMITS, GroupInputError, InvariantError,
                     Limits)
from .permcore import (Perm, PermGroup, Subgroup, conjugate_subgroup,
                       format_cycles, full_subgroup, interned, parse_cycles,
                       trivial_subgroup)
from .structure import (ChiefFactor, QuotientGroup, all_subgroups, chief_series,
                        derived_subgroup, frattini_subgroup, hall_subgroup,
                        intersection_subgroup, is_normal, is_soluble, maximal_subgroups,
                        maximal_subgroups_of_p_group, minimal_normal_subgroups,
                        normal_subgroups, quotient_group, subgroup_from_images,
                        subgroups_of_order, supplements, sylow_subgroup)
from .sigma import (HallSigmaSet, SigmaPartition, complete_hall_sigma_set,
                    induces_power_automorphisms, is_pi_separable, is_psigma_t,
                    is_sigma_nilpotent, is_sigma_permutable, is_sigma_primary,
                    is_sigma_soluble, largest_normal_block_subgroup, parse_sigma,
                    psigma_t_violation, sigma_nilpotent_residual, sigma_of_group,
                    sigma_of_int, sigma_permutable_sets)
from .corpus import (CorpusEntry, builtin_corpus, builtin_entry,
                     parse_corpus_file, partitions_of_primes)
from .harness import (STATEMENTS, CampaignConfig, VerificationOutcome,
                      campaign_sigmas, report_from_rows, run_campaign,
                      validate_covering_witness, verify_cor_1_1, verify_cor_1_2,
                      verify_group, verify_lemma_2_1, verify_lemma_2_2,
                      verify_lemma_2_3, verify_lemma_2_4, verify_lemma_2_5_converse_search,
                      verify_lemma_2_5_forward, verify_theorem_A)

__version__ = "0.1.0"

"""A corpus of faults the test suite must catch, and the runner that checks it.

Each entry of MUTANTS is one small fault: a file under src/biphoton, an exact
text of it, the text that replaces it, and the tests that must fail with the
fault in place. The runner copies src/ into a temporary directory, checks
that the named tests pass on the copy as it is, then applies one entry at a
time and checks that every named test fails. A refactor that quietly weakens
a test shows up as a surviving mutant.

The run takes minutes, so it is not part of the test suite;
tests/test_mutants.py checks that each entry's text occurs exactly once in
src/, so that the corpus cannot go stale without notice. Stdlib only; run it
from any directory:

    python tests/mutants.py [NAME...]

It runs the named entries, or every entry when none is named, and exits 0
when every mutant run is caught, 1 otherwise, and 2 on a name it does not know.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TIMEOUT = 600  # seconds one pytest run may take


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/biphoton
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids that must fail


# What cli.run() does between main() and the freeze
_RUN_HANDLER = (
    "    except KeyboardInterrupt as exc:  # Python's own, for SIGINT, has no args\n"
    "        print(f\"biphoton: stopped by {exc.args[0] if exc.args else 'SIGINT'}\","
    " file=sys.stderr)\n"
    "        status = 1\n"
)

MUTANTS = (
    Mutant(
        "fresh_stream_per_block",
        "montecarlo.py",
        "yield draw_outcomes(cdf, doubles(min(BLOCK, n - start)))",
        "yield draw_outcomes(cdf, SplitMix64(seed).doubles(min(BLOCK, n - start)))",
        (
            "tests/test_montecarlo.py::test_blocks_join_into_the_whole_array_draw[0.0-1.0-0]",
            "tests/test_golden.py::test_large_output_file_hash[sample_1048600]",
        ),
    ),
    Mutant(
        "sampling_leaks_a_byte_a_trial",
        "montecarlo.py",
        "        yield draw_outcomes(cdf, doubles(min(BLOCK, n - start)))\n",
        "        yield draw_outcomes(cdf, doubles(min(BLOCK, n - start)))\n"
        '        vars(outcome_blocks).setdefault("held", []).append(bytes(min(BLOCK, n - start)))\n',
        (
            "tests/test_cli.py::test_sample_memory_does_not_grow_with_samples",
            "tests/test_montecarlo.py::test_sample_counts_block_arrays_fit_in_l2",
            "tests/test_montecarlo.py::test_bell_experiment_working_set_is_one_small_block",
        ),
    ),
    Mutant(
        "block_of_2_16_trials",
        "montecarlo.py",
        "BLOCK = 1 << 14",
        "BLOCK = 1 << 16",
        ("tests/test_montecarlo.py::test_bell_experiment_working_set_is_one_small_block",),
    ),
    Mutant(
        "stderr_ddof_0",
        "montecarlo.py",
        "math.sqrt(same * diff / (n - 1)) / n",
        "math.sqrt(same * diff / n) / n",
        (
            "tests/test_montecarlo.py::test_count_estimate_equals_score_array_estimate",
            "tests/test_golden.py::test_transcript_is_byte_identical[bench_bell]",
        ),
    ),
    Mutant(
        "stderr_5_percent_high",
        "montecarlo.py",
        "stderr = 2.0 * math.sqrt(",
        "stderr = 2.1 * math.sqrt(",
        ("tests/test_montecarlo.py::test_estimates_are_calibrated_over_many_points",),
    ),
    Mutant(
        "stderr_5_percent_low",
        "montecarlo.py",
        "stderr = 2.0 * math.sqrt(",
        "stderr = 1.9 * math.sqrt(",
        ("tests/test_montecarlo.py::test_estimates_are_calibrated_over_many_points",),
    ),
    Mutant(
        "draw_gt_for_ge",
        "montecarlo.py",
        "return (u >= cdf[0]).view(np.uint8) + (u >= cdf[1]) + (u >= cdf[2])",
        "return (u > cdf[0]).view(np.uint8) + (u > cdf[1]) + (u > cdf[2])",
        tuple(
            "tests/test_montecarlo.py::test_draw_kernel_equals_searchsorted_at_every_cdf_entry"
            f"[probs{k}]"
            for k in range(4)
        ),
    ),
    Mutant(
        "sample_events_table_reversed",
        "montecarlo.py",
        "np.concatenate(list(outcome_blocks(probs, n, seed)))",
        "np.concatenate(list(outcome_blocks(probs[::-1], n, seed)))",
        ("tests/test_montecarlo.py::test_per_event_views_equal_the_core",),
    ),
    Mutant(
        "estimate_correlation_skips_the_first_event",
        "montecarlo.py",
        "np.bincount(events, minlength=len(OUTCOMES))",
        "np.bincount(events[1:], minlength=len(OUTCOMES))",
        ("tests/test_montecarlo.py::test_per_event_views_equal_the_core",),
    ),
    Mutant(
        "nan_blind_range_check",
        "analysis.py",
        "if not (-1.0 <= e_min and e_max <= 1.0):",
        "if e_min < -1.0 or e_max > 1.0:",
        (
            "tests/test_analysis.py::test_sweep_rejects_tables_outside_the_ranges"
            "[bad1-correlation outside]",
        ),
    ),
    Mutant(
        "no_signaling_reads_a_from_the_wrong_scan",
        "analysis.py",
        "marginals(joint_tables(phi_a, phi, vis)).a_plus",
        "marginals(joint_tables(phi, phi_a, vis)).a_plus",
        ("tests/test_analysis.py::test_no_signaling_check_reads_each_partys_scan[A]",),
    ),
    Mutant(
        "correlation_guard_rejects_minus_one",
        "analysis.py",
        "-1.0 <= e_min",
        "-1.0 < e_min",
        ("tests/test_analysis.py::test_sweep_accepts_tables_on_the_range_ends[edge1]",),
    ),
    Mutant(
        "correlation_guard_rejects_plus_one",
        "analysis.py",
        "e_max <= 1.0",
        "e_max < 1.0",
        ("tests/test_analysis.py::test_sweep_accepts_tables_on_the_range_ends[edge0]",),
    ),
    Mutant(
        "marginal_guard_rejects_zero",
        "analysis.py",
        "0.0 <= p_min",
        "0.0 < p_min",
        tuple(
            f"tests/test_analysis.py::test_sweep_accepts_tables_on_the_range_ends[edge{k}]"
            for k in range(2)
        ),
    ),
    Mutant(
        "marginal_guard_rejects_one",
        "analysis.py",
        "p_max <= 1.0",
        "p_max < 1.0",
        tuple(
            f"tests/test_analysis.py::test_sweep_accepts_tables_on_the_range_ends[edge{k}]"
            for k in range(2)
        ),
    ),
    Mutant(
        "partial_trace_keeps_the_other_factor",
        "linalg.py",
        "if keep == 0:  #",
        "if keep == 1:  #",
        (
            "tests/test_linalg.py::test_partial_trace_keep_detector_matches_explicit_summation",
            "tests/test_premeasure.py::test_coupling_does_not_disturb_eigenstates",
        ),
    ),
    Mutant(
        "positivity_skips_its_last_pivot",
        "linalg.py",
        "for j, pivot_row in enumerate(rows):",
        "for j, pivot_row in enumerate(rows[:-1]):",
        (
            "tests/test_linalg.py::test_density_rejects_negative_eigenvalue",
            "tests/test_linalg.py::test_positivity_check_agrees_with_eigvalsh",
        ),
    ),
    Mutant(
        "numpy_scalar_leaf_rejected",
        "linalg.py",
        "        except TypeError:  # another numpy scalar, or a 0-d array\n            pass\n",
        "        except TypeError:  # another numpy scalar, or a 0-d array\n            raise\n",
        ("tests/test_linalg.py::test_numpy_scalars_and_0d_arrays_are_leaves",),
    ),
    Mutant(
        "square_unitarity_unchecked",
        "linalg.py",
        "        if d_in == d_out and _gram_defect(mat) > TOL:\n"
        '            raise ValueError("square operator is not unitary (UU+ != I)")\n',
        "",
        (
            "tests/test_linalg.py::"
            "test_square_operator_with_orthonormal_columns_but_not_rows_is_not_unitary",
        ),
    ),
    Mutant(
        "gram_skips_the_diagonal",
        "linalg.py",
        "enumerate(vectors[i:], i)",
        "enumerate(vectors[i + 1:], i + 1)",
        (
            "tests/test_linalg.py::test_operator_rejects_non_unitary",
            "tests/test_linalg.py::"
            "test_gram_defect_over_unordered_pairs_equals_that_over_ordered_pairs",
            "tests/test_records.py::test_constructors_reject_bad_fields_with_their_messages"
            "[operator isometry]",
        ),
    ),
    Mutant(
        "only_phi_a_wrapped",
        "optics.py",
        "cmath.exp(1j * _wrap_angle(phi_b))",
        "cmath.exp(1j * float(phi_b))",
        ("tests/test_optics.py::test_joint_tables_of_raw_angles_equal_those_of_wrapped_angles",),
    ),
    Mutant(
        # Same bytes, four more complex products and an exp per grid point
        "b_term_formed_per_point",
        "optics.py",
        "    b1 = SOURCE_AMPS[0] * cmath.exp(1j * _wrap_angle(phi_b))\n"
        "    rows = [(a1b1 * b1, a2b2) for a1b1, a2b2 in _SPLITTERS]\n"
        "    v = vis.v\n"
        "    flat = (1.0 - v) * 0.25\n"
        "    tables = []\n"
        "    for phi_a in phis_a:\n",
        "    v = vis.v\n"
        "    flat = (1.0 - v) * 0.25\n"
        "    tables = []\n"
        "    for phi_a in phis_a:\n"
        "        b1 = SOURCE_AMPS[0] * cmath.exp(1j * _wrap_angle(phi_b))\n"
        "        rows = [(a1b1 * b1, a2b2) for a1b1, a2b2 in _SPLITTERS]\n",
        ("tests/test_analysis.py::test_sweep_forms_the_b_phase_factor_once",),
    ),
    Mutant(
        "splitter_rows_in_port_order",
        "optics.py",
        "for a, b in ((0, 1), (0, 0))",
        "for a, b in ((0, 0), (0, 1))",
        (
            "tests/test_optics.py::test_splitter_pair_is_the_labelled_kronecker_product",
            "tests/test_optics.py::test_joint_matches_hand_expanded_oracle",
            "tests/test_acceptance.py::test_criterion_3_matched_settings_never_mismatch",
            "tests/test_golden.py::test_transcript_is_byte_identical[readme_sweep]",
        ),
    ),
    Mutant(
        # The kept rows are right; the emitted table puts q where p goes
        "table_p_q_swapped",
        "optics.py",
        "tables.append((p, q, q, p))",
        "tables.append((q, p, p, q))",
        (
            "tests/test_optics.py::test_fringe_tables_equal_the_one_pair_circuit",
            "tests/test_optics.py::test_joint_matches_hand_expanded_oracle",
            "tests/test_golden.py::test_transcript_is_byte_identical[readme_sweep]",
        ),
    ),
    Mutant(
        # A square that does not round as x * x + y * y moves the printed last
        # bits. The out * out.conj() of numpy's SIMD kernels was one; Python's
        # complex product rounds it as x * x + y * y, so abs() stands in for it.
        "square_as_out_times_its_conjugate",
        "optics.py",
        "v * (o.real * o.real + o.imag * o.imag)",
        "v * abs(o) ** 2",
        (
            "tests/test_optics.py::test_joint_tables_bytes_hold_with_numpy_cpu_dispatch_off",
            "tests/test_golden.py::test_transcript_is_byte_identical[sweep_zero_crossing]",
        ),
    ),
    Mutant(
        "chsh_pairs_b_swapped",
        "optics.py",
        "a, a_prime, b, b_prime = self",
        "a, a_prime, b_prime, b = self",
        (
            "tests/test_analysis.py::test_chsh_matches_reference_on_random_settings",
            "tests/test_montecarlo.py::test_bell_experiment_equals_per_setting_loop",
            "tests/test_golden.py::test_transcript_is_byte_identical[bell_defaults]",
        ),
    ),
    Mutant(
        "high_digits_from_matrix_start",
        "commands.py",
        '(b"%d" % run)[:-low]',
        '(b"%d" % lo)[:-low]',
        (
            "tests/test_cli.py::test_event_lines_equal_per_event_strings",
            "tests/test_cli.py::test_event_lines_yield_one_matrix_per_trial_width",
        ),
    ),
    Mutant(
        "seed_range_one_short",
        "cli.py",
        "_SEEDS = range(2**64)",
        "_SEEDS = range(2**64 - 1)",
        ("tests/test_golden.py::test_transcript_is_byte_identical[bell_below_threshold]",),
    ),
    Mutant(
        "sample_block_numbered_from_zero",
        "commands.py",
        "_event_lines(int(counts.sum()), idx, rests)",
        "_event_lines(0, idx, rests)",
        (
            "tests/test_golden.py::test_large_transcript_hash[sample_200k]",
            "tests/test_golden.py::test_large_output_file_hash[sample_1048600]",
        ),
    ),
    Mutant(
        "sample_formats_all_blocks_at_once",
        "commands.py",
        "for idx in outcome_blocks(probs, args.samples, args.seed):",
        "for idx in [np.concatenate(list(outcome_blocks(probs, args.samples, args.seed)))]:",
        ("tests/test_cli.py::test_sample_memory_does_not_grow_with_samples",),
    ),
    Mutant(
        "grid_steps_long_array",
        "commands.py",
        "range(start, min(start + _GRID_CHUNK, args.steps))",
        "list(range(args.steps))[start:start + _GRID_CHUNK]",
        (
            "tests/test_cli.py::test_grid_memory_does_not_grow_with_steps[sweep]",
            "tests/test_cli.py::test_grid_memory_does_not_grow_with_steps[marginals]",
        ),
    ),
    Mutant(
        "grid_rows_accumulate",
        "commands.py",
        "block = columns(start, sweep_correlation(deltas, vis))",
        "block = columns(start, sweep_correlation(deltas, vis))\n"
        '            vars(args).setdefault("held", []).append(block)',
        (
            "tests/test_cli.py::test_grid_memory_does_not_grow_with_steps[sweep]",
            "tests/test_cli.py::test_grid_memory_does_not_grow_with_steps[marginals]",
        ),
    ),
    Mutant(
        "grid_leaks_a_byte_a_step",
        "commands.py",
        "out.write(_csv_rows(block))",
        "out.write(_csv_rows(block))\n"
        '            vars(args).setdefault("held", []).append(bytes(len(block[0])))',
        (
            "tests/test_cli.py::test_grid_memory_does_not_grow_with_steps[sweep]",
            "tests/test_cli.py::test_grid_memory_does_not_grow_with_steps[marginals]",
        ),
    ),
    Mutant(
        "csv_rows_without_sign_guard",
        "commands.py",
        " and (a > 0 or b < 0)",
        "",
        (
            "tests/test_cli.py::test_csv_rows_equal_the_per_field_format",
            "tests/test_cli.py::test_csv_rows_equal_the_per_field_format_at_the_edges"
            "[signed_zeros]",
        ),
    ),
    Mutant(
        # min and max of [1.0, nan, 1.0] are both 1.0: the NaN row would print 1,
        # and a sweep with a NaN at its second point would pass its range checks
        "csv_rows_without_nan_guard",
        "analysis.py",
        "    if math.isnan(sum(column)):\n        return math.nan, math.nan\n",
        "",
        (
            "tests/test_cli.py::test_csv_rows_equal_the_per_field_format",
            "tests/test_cli.py::test_csv_rows_equal_the_per_field_format_at_the_edges"
            "[nan_among_values]",
            "tests/test_analysis.py::test_sweep_rejects_tables_outside_the_ranges"
            "[bad1-correlation outside]",
            "tests/test_analysis.py::test_sweep_rejects_tables_an_ulp_outside_the_ranges"
            "[bad3-correlation outside]",
        ),
    ),
    Mutant(
        "sample_summary_estimate_from_three_events",
        "commands.py",
        "if args.samples >= 2:",
        "if args.samples > 2:",
        ("tests/test_cli.py::test_sample_summary_of_two_events_carries_the_estimate",),
    ),
    Mutant(
        "violation_at_two_and_a_half_stderr",
        "commands.py",
        "3.0 * sampled.stderr",
        "2.5 * sampled.stderr",
        (
            "tests/test_cli.py::test_bell_violation_is_s_hat_more_than_three_stderr_above_two"
            "[below]",
            "tests/test_cli.py::test_bell_violation_is_s_hat_more_than_three_stderr_above_two"
            "[at]",
        ),
    ),
    Mutant(
        "bell_optimal_drops_angles",
        "commands.py",
        "    if args.optimal == (args.angles is not None):",
        "    if not args.optimal and args.angles is None:",
        tuple(
            "tests/test_cli.py::test_command_usage_errors_are_pinned"
            f"[argv{k}-provide --angles a,a',b,b' or --optimal, not both]"
            for k in (20, 21)
        ),
    ),
    Mutant(
        "output_zeroes_the_umask",
        "commands.py",
        "            os.chmod(tmp, mode)\n",
        "            os.chmod(tmp, mode)\n        else:\n            os.umask(os.umask(0))\n",
        ("tests/test_cli.py::test_new_output_file_leaves_the_process_umask_alone",),
    ),
    Mutant(
        # /dev/stdout on a pipe resolves to /proc/PID/fd/pipe:[N], which is not there
        "output_resolved_before_stat",
        "commands.py",
        "        info = os.stat(path)\n",
        "        info = os.stat(os.path.realpath(path))\n",
        tuple(
            f"tests/test_cli.py::test_output_spellings_against_how_stdout_is_opened[{spelling}-pipe]"
            for spelling in ("/dev/stdout", "/dev/fd/1", "/proc/self/fd/1", "link")
        ),
    ),
    Mutant(
        "estimator_takes_non_finite_fields",
        "montecarlo.py",
        "            if not math.isfinite(value):\n",
        "            if False:\n",
        tuple(
            f"tests/test_records.py::{test}[{case}]"
            for test in ("test_constructors_reject_bad_fields_with_their_messages",
                         "test_make_and_replace_run_the_constructor_checks")
            for case in ("estimate nan", "estimate inf", "stderr nan", "stderr inf")
        ),
    ),
    Mutant(
        "labelled_type_gains_a_dict",
        "linalg.py",
        'tensor-product basis."""\n\n    __slots__ = ()\n',
        'tensor-product basis."""\n',
        ("tests/test_records.py::test_fields_cannot_be_assigned_or_deleted[StateVector]",),
    ),
    Mutant(
        "checked_make_skips_the_checks",
        "records.py",
        "    base._make = classmethod(lambda cls, iterable: cls(*iterable))\n",
        "",
        (
            "tests/test_records.py::test_make_and_replace_run_the_constructor_checks[state norm]",
            "tests/test_records.py::test_make_and_replace_build_what_the_constructor_builds"
            "[PhaseSettings]",
        ),
    ),
    Mutant(
        "import_error_leaves_a_traceback",
        "cli.py",
        "    except ImportError as exc:  # numpy, imported by the handler, cannot load\n"
        "        # numpy's message is a page of advice that ends in the cause\n"
        '        cause = str(exc).strip().rpartition("\\n")[2]\n'
        '        print(f"biphoton: import error: {cause}", file=sys.stderr)\n'
        "        return 1\n",
        "",
        tuple(
            f"tests/test_package.py::test_a_numpy_that_cannot_load_is_reported_in_one_line"
            f"[{command}-{blocker}]"
            for command in ("sweep_mc", "bell", "sample")
            for blocker in ("halted", "unmappable")
        ),
    ),
    Mutant(
        "import_error_prints_numpys_advice",
        "cli.py",
        '        cause = str(exc).strip().rpartition("\\n")[2]\n',
        "        cause = exc\n",
        (
            "tests/test_package.py::test_a_numpy_that_cannot_load_is_reported_in_one_line"
            "[sample-unmappable]",
        ),
    ),
    Mutant(
        "cli_imports_the_detection_model_eagerly",
        "commands.py",
        "from .cli import _SEEDS, parse_angle\n",
        "from .cli import _SEEDS, parse_angle\n"
        "from .premeasure import correlation_report, premeasure  # noqa: F401\n",
        tuple(
            f"tests/test_package.py::test_each_command_loads_only_the_modules_it_runs[{command}]"
            for command in ("sample", "bell", "sweep", "marginals")
        ),
    ),
    Mutant(
        "commands_import_the_sampling_modules_eagerly",
        "commands.py",
        "from itertools import chain\n",
        "from itertools import chain\n\n"
        "from .montecarlo import estimate_columns  # noqa: F401\n",
        tuple(
            f"tests/test_package.py::test_each_command_loads_only_the_modules_it_runs[{command}]"
            for command in ("sweep_exact", "marginals", "premeasure")
        ),
    ),
    Mutant(
        "commands_import_numpy_eagerly",
        "commands.py",
        "from functools import cache\n",
        "from functools import cache\n\nimport numpy as np  # noqa: F401\n",
        tuple(
            f"tests/test_package.py::test_each_command_loads_only_the_modules_it_runs[{command}]"
            for command in ("sweep_exact", "marginals", "premeasure")
        ),
    ),
    Mutant(
        "bell_imports_the_sampling_modules_before_its_checks",
        "commands.py",
        "def cmd_bell(args) -> int:\n",
        "def cmd_bell(args) -> int:\n"
        "    from .analysis import chsh  # noqa: F401\n"
        "    from .montecarlo import bell_experiment  # noqa: F401\n",
        tuple(
            f"tests/test_package.py::test_each_command_loads_only_the_modules_it_runs[{command}]"
            for command in ("bell_visibility", "bell_samples", "bell_angles")
        ) + tuple(
            "tests/test_package.py::test_a_numpy_that_cannot_load_is_reported_in_one_line"
            f"[bell_visibility-{blocker}]"
            for blocker in ("halted", "unmappable")
        ),
    ),
    Mutant(
        "sampling_imports_the_labelled_model",
        "montecarlo.py",
        "from .rng import SplitMix64, derive_seed\n",
        "from .rng import SplitMix64, derive_seed\n"
        "from . import linalg  # noqa: F401\n",
        tuple(
            f"tests/test_package.py::test_each_command_loads_only_the_modules_it_runs[{command}]"
            for command in ("sample", "bell", "sweep")
        ),
    ),
    Mutant(
        "cli_imports_numpy_eagerly",
        "cli.py",
        "import sys\n\n_SEEDS",
        "import sys\n\nimport numpy as np  # noqa: F401\n\n_SEEDS",
        tuple(
            f"tests/test_package.py::test_each_command_loads_only_the_modules_it_runs[{command}]"
            for command in ("help", "sweep_help", "usage_error")
        ),
    ),
    Mutant(
        "hermitian_skips_the_diagonal",
        "linalg.py",
        "for j in range(i, d)",
        "for j in range(i + 1, d)",
        (
            "tests/test_records.py::test_constructors_reject_bad_fields_with_their_messages"
            "[density hermitian diagonal]",
        ),
    ),
    Mutant(
        "subcommand_without_usage_parser",
        "cli.py",
        "        command.set_defaults(parser=command)",
        "        pass",
        (
            "tests/test_cli.py::test_command_usage_errors_are_pinned"
            "[argv0---steps must be >= 2, got 1]",
            "tests/test_cli.py::test_command_usage_errors_are_pinned"
            "[argv1---steps must be >= 2, got -3]",
            "tests/test_cli.py::test_command_usage_errors_are_pinned"
            "[argv8---angles expects four comma-separated angles]",
            "tests/test_cli.py::test_command_usage_errors_are_pinned"
            "[argv13---samples must be >= 1]",
            "tests/test_cli.py::test_module_entry_point_keeps_usage_exit",
        ),
    ),
    Mutant(
        "negative_angle_read_as_flag",
        "cli.py",
        "        self._negative_number_matcher = _NEGATIVE_VALUE\n",
        "",
        tuple(
            "tests/test_cli.py::test_negative_angles_read_alike_as_separate_and_joined_arguments"
            f"[argv{k}-{code}]"
            for k, code in enumerate((0, 0, 0, 2))
        ),
    ),
    Mutant(
        "freeze_before_the_run_imports_numpy",
        "cli.py",
        "    try:\n        status = main()\n" + _RUN_HANDLER + "    gc.freeze()\n",
        "    gc.freeze()\n    try:\n        status = main()\n" + _RUN_HANDLER,
        ("tests/test_cli.py::test_process_entry_freezes_start_up_objects",),
    ),
    Mutant(
        "run_installs_no_signal_handler",
        "cli.py",
        "            signal.signal(signum, stop)\n",
        "            pass\n",
        tuple(
            "tests/test_cli.py::"
            f"test_a_signal_ends_the_run_in_one_line_and_leaves_no_temporary_file[{argv}-{signame}]"
            for signame in ("SIGTERM", "SIGHUP")
            for argv in ("sample", "sweep_mc")
        ),
    ),
    Mutant(
        # The report then replaces the state in the one file both flags name
        "premeasure_paths_not_compared",
        "commands.py",
        '    if state[0] == "replace" and state == out:\n',
        "    if False:\n",
        (
            "tests/test_cli.py::test_premeasure_state_and_report_in_one_file_leave_it_unchanged",
            "tests/test_package.py::test_each_command_loads_only_the_modules_it_runs"
            "[premeasure_paths]",
        ),
    ),
    Mutant(
        # An error in making, chmod-ing or moving the temporary file names it again
        "temp_error_names_tmp",
        "commands.py",
        "            raise OSError(exc.errno, exc.strerror, path) from None\n",
        "            raise\n",
        (
            "tests/test_cli.py::test_unwritable_output_is_io_error",
            "tests/test_cli.py::test_unwritable_state_dump_is_io_error",
            *(
                "tests/test_cli.py::test_stdout_spelled_as_a_path_with_stdout_closed_names_that"
                f"_path[{spelling}-{argv}]"
                for spelling in ("/dev/stdout", "/dev/fd/1", "/proc/self/fd/1")
                for argv in ("sweep_output", "premeasure_dump_state")
            ),
        ),
    ),
    Mutant(
        # A one-bit change in half the doubles moves no golden's counts: only
        # the stream's pinned values catch it
        "doubles_keep_52_bits",
        "rng.py",
        "        z >>= np.uint64(11)\n",
        "        z >>= np.uint64(12)\n        z <<= np.uint64(1)\n",
        (
            "tests/test_montecarlo.py::test_splitmix64_canonical_seed_zero",
            "tests/test_montecarlo.py::test_splitmix64_frozen_seed_42",
            "tests/test_montecarlo.py::test_splitmix64_doubles_from_top_53_bits",
            "tests/test_montecarlo.py::test_vectorized_doubles_equal_scalar_stream",
        ),
    ),
    Mutant(
        "doubles_advance_n_minus_one",
        "rng.py",
        "self._state = (self._state + n * _GAMMA) & _MASK64",
        "self._state = (self._state + (n - 1) * _GAMMA) & _MASK64",
        (
            "tests/test_montecarlo.py::test_doubles_advance_state_like_scalar_calls",
            "tests/test_montecarlo.py::test_doubles_split_anywhere_equal_one_block",
            "tests/test_golden.py::test_large_output_file_hash[sample_1048600]",
        ),
    ),
    Mutant(
        "derive_seed_drops_gamma",
        "rng.py",
        "z = (seed + k + _GAMMA) & _MASK64",
        "z = (seed + k) & _MASK64",
        (
            "tests/test_montecarlo.py::test_splitmix64_matches_reference_transcription",
            "tests/test_montecarlo.py::test_derive_seed_is_first_output_of_shifted_state",
            "tests/test_golden.py::test_transcript_is_byte_identical[bench_bell]",
        ),
    ),
    Mutant(
        "doubles_skip_the_first_output",
        "rng.py",
        "np.arange(1, n + 1, dtype=np.uint64)",
        "np.arange(2, n + 2, dtype=np.uint64)",
        (
            "tests/test_montecarlo.py::test_splitmix64_canonical_seed_zero",
            "tests/test_montecarlo.py::test_doubles_reject_a_negative_count_and_keep_the_state",
            "tests/test_montecarlo.py::test_outcome_array_matches_scalar_inverse_cdf",
            "tests/test_golden.py::test_transcript_is_byte_identical[sample_single_event]",
        ),
    ),
    Mutant(
        "doubles_mix_shifts_swapped",
        "rng.py",
        "((30, _MIX1), (27, _MIX2))",
        "((27, _MIX1), (30, _MIX2))",
        (
            "tests/test_montecarlo.py::test_splitmix64_frozen_seed_42",
            "tests/test_montecarlo.py::test_vectorized_doubles_equal_scalar_stream",
            "tests/test_golden.py::test_transcript_is_byte_identical[readme_sample]",
        ),
    ),
    Mutant(
        "derive_seed_last_shift_32",
        "rng.py",
        "return z ^ (z >> 31)",
        "return z ^ (z >> 32)",
        (
            "tests/test_montecarlo.py::test_splitmix64_matches_reference_transcription",
            "tests/test_montecarlo.py::test_derive_seed_is_first_output_of_shifted_state",
            "tests/test_golden.py::test_transcript_is_byte_identical[sweep_mc_blind]",
        ),
    ),
)


def failed_tests(src: Path, tests: tuple[str, ...]) -> set[str]:
    """The node ids among tests that do not pass with biphoton imported from src."""
    report = src.parent / "report.xml"
    env = {**os.environ, "PYTHONPATH": str(src)}
    report.unlink(missing_ok=True)
    try:
        subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             f"--junitxml={report}", *tests],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return set(tests)  # a hang counts as a failure
    if not report.exists():
        return set(tests)
    passed = set()
    for case in ET.parse(report).iter("testcase"):
        if not any(child.tag in ("failure", "error", "skipped") for child in case):
            module = case.get("classname").replace(".", "/")
            passed.add(f"{module}.py::{case.get('name')}")
    return set(tests) - passed


def main(names: list[str]) -> int:
    known = {m.name: m for m in MUTANTS}
    unknown = [name for name in names if name not in known]
    if unknown:
        print(f"unknown mutant {', '.join(unknown)}; the known ones are:", *known,
              sep="\n  ", file=sys.stderr)
        return 2
    chosen = [known[name] for name in dict.fromkeys(names)] if names else MUTANTS
    with tempfile.TemporaryDirectory(prefix="biphoton-mutants-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        every_test = tuple(dict.fromkeys(t for m in chosen for t in m.tests))
        broken = failed_tests(src, every_test)
        if broken:
            print(f"fail before any mutation: {', '.join(sorted(broken))}", file=sys.stderr)
            return 1
        survivors = []
        for m in chosen:
            path = src / "biphoton" / m.file
            text = path.read_text(encoding="utf-8")
            if text.count(m.old) != 1:
                print(f"{m.name}: its text does not occur exactly once in {m.file}")
                survivors.append(m.name)
                continue
            path.write_text(text.replace(m.old, m.new), encoding="utf-8")
            try:
                passing = set(m.tests) - failed_tests(src, m.tests)
            finally:
                path.write_text(text, encoding="utf-8")
            print(f"{m.name}: {'SURVIVED ' + ', '.join(sorted(passing)) if passing else 'caught'}")
            if passing:
                survivors.append(m.name)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants caught")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

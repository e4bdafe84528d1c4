"""The package namespace: ``fpcount`` re-exports each module's public names."""

import fpcount

PUBLIC = {
    "AccuracyBounds",
    "BitCost",
    "BitSource",
    "BitStream",
    "CheckpointStats",
    "CounterParams",
    "CounterRangeError",
    "CounterState",
    "CounterTable",
    "DEFAULT_CEILING",
    "EnsembleReport",
    "Family",
    "MODE_EXACT",
    "MODE_FLOAT",
    "MomentRecord",
    "ScriptedBitSource",
    "SlotEstimate",
    "StepDistribution",
    "TrajectoryPoint",
    "accuracy",
    "accuracy_limits",
    "child_seed",
    "decompose",
    "estimate",
    "estimate_float",
    "estimate_series",
    "estimator_variance",
    "expected_bits",
    "expected_estimate",
    "increment",
    "linear_checkpoints",
    "log_checkpoints",
    "merge_reports",
    "mix64",
    "new_counter",
    "relative_spread",
    "run_ensemble",
    "run_trajectory",
    "step_distribution",
    "storage_bits",
    "stream_block",
    "sweep_moments",
    "transition_prob",
    "variance_fn",
    "variance_series",
}


def test_public_names_are_pinned_and_unique():
    assert set(fpcount.__all__) == PUBLIC
    assert len(fpcount.__all__) == len(PUBLIC)


def test_every_public_name_resolves_to_its_module_object():
    for module in (
        fpcount.chain,
        fpcount.counters,
        fpcount.ensemble,
        fpcount.oracle,
        fpcount.randbits,
        fpcount.table,
    ):
        for name in module.__all__:
            assert getattr(fpcount, name) is getattr(module, name), name

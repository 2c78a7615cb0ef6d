"""The paper's central claim as a test: report text resolves the mirrored twin
that image-only models cannot.

Every sample is ambiguous: a visually identical crescent sits at the mirrored
position but is left out of the mask, so only the report's side word says which
crescent is the target. The four ablation arms train on one fold under the same
settings, two at a time through `ablate`. The data seed and the margins were
fixed before the first run.

Departure from the paper: lr is 1e-3, not 5e-5. At 5e-5 the `full` arm reached
only 0.157 validation Dice after 15 epochs (data seed 11).
"""

import pytest

from ctxseg.data import GeneratorConfig, SplitSpec, generate_dataset, split_indices
from ctxseg.train import TrainConfig, ablate, paper_arms, word_swap_probe

DATA_SEED = 2303          # fresh: the generator fix was measured at seed 11
FOLD_SEED = 101
MIN_FULL_DICE = 0.8
MIN_MARGIN = 0.25         # over every other arm
MIN_FLIP_RATE = 0.9       # both word-swap directions, on the full arm


@pytest.mark.slow
def test_text_resolves_the_mirrored_twin(tmp_path):
    data = generate_dataset(GeneratorConfig(n=256, ambiguous_fraction=1.0),
                            base_seed=DATA_SEED)
    cfg = TrainConfig(lr=1e-3, epochs=15, split=SplitSpec(fold_seeds=[FOLD_SEED]))
    results = ablate(paper_arms(cfg), data, tmp_path, jobs=2)["results"]
    dice = {arm: recs[0].test.mean for arm, recs in results.items()}
    _, _, test_idx = split_indices(len(data), cfg.split.fractions, FOLD_SEED)
    probe = word_swap_probe(tmp_path / "full" / "fold0" / "checkpoint.ctxn",
                            [data[i] for i in test_idx],
                            [("left", "right"), ("right", "left")], cfg)
    flips = {key: s["flip_rate"] for key, s in probe["swaps"].items()}
    summary = f"test Dice {dice}, full-arm flip rates {flips}"

    assert dice["full"] >= MIN_FULL_DICE, summary
    for arm in set(dice) - {"full"}:
        assert dice["full"] - dice[arm] >= MIN_MARGIN, summary
    for key in ("left->right", "right->left"):
        assert flips[key] >= MIN_FLIP_RATE, summary

"""Results at one and at two BLAS threads agree within measured bounds.

OpenBLAS splits its products and its LAPACK steps by thread count, so the
last bits of a result depend on it. At these sizes, on a 2-vCPU host with
OpenBLAS 0.3.31, one and two threads gave per-word cosines up to 4.2e-17
apart and ``w_i`` up to 3.4e-16 relative, trained factors up to 1.9e-13 of
their column's largest entry, and the same ``rpd`` and null. Larger inputs
moved ``rpd`` by up to 2.6e-16 relative. Each bound below allows for that
with a margin of about ten or more.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from _corpus import synthetic_corpus_text
from conftest import random_embedding
import rpd
from rpd import load_embeddings, save_embeddings

RTOL = 1e-14  # rpd, its two terms, w_i and the null's moments, relative
COS_ATOL = 1e-15  # per-word cosines, which lie in [-1, 1]
PRINT_RTOL = 1e-9  # one unit in the tenth printed digit of a trained file
FACTOR_RTOL = 2e-12  # a trained entry, relative to its column's largest


def run_cli(threads, *args):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads)}
    result = subprocess.run([sys.executable, "-m", "rpd.cli", *map(str, args)], env=env,
                            cwd=Path(rpd.__file__).resolve().parents[1],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout


def assert_record_close(left, right, rtol, atol=0.0):
    """Equal keys; floats within the bounds, everything else equal."""
    assert left.keys() == right.keys()
    for key, value in left.items():
        if isinstance(value, float):
            assert right[key] == pytest.approx(value, rel=rtol, abs=atol), key
        else:
            assert right[key] == value, key


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """``pair --decompose``, ``nulltest`` and ``train-svd`` at one and two threads.

    The runs and the loads here share a parse cache of their own: this fixture
    is set up before the per-test one.
    """
    tmp = tmp_path_factory.mktemp("threads")
    rng = np.random.default_rng(12345)
    left, right, corpus = tmp / "left.txt", tmp / "right.txt", tmp / "corpus.txt"
    save_embeddings(random_embedding(rng, 3000, 120), left)
    save_embeddings(random_embedding(rng, 3000, 90), right)
    corpus.write_text(synthetic_corpus_text(30000, vocab_size=350, seed=13), encoding="utf-8")
    runs = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp / "cache"))
        for threads in (1, 2):
            trained = tmp / f"trained{threads}.txt"
            run_cli(threads, "train-svd", "--corpus", corpus, "--dim", 50, "--window", 5,
                    "--min-count", 3, "--output", trained)
            runs[threads] = {
                "pair": json.loads(run_cli(threads, "pair", "--left", left,
                                           "--right", right, "--decompose")),
                "nulltest": json.loads(run_cli(threads, "nulltest", "--left", left,
                                               "--right", right, "--replicates", 30)),
                "trained": load_embeddings(trained),
            }
    return runs[1], runs[2]


def test_pair_per_word_by_word(runs):
    one, two = (dict(run["pair"]) for run in runs)
    words = {entry["word"]: entry for entry in two.pop("per_word")}
    entries = one.pop("per_word")
    assert_record_close(one, two, RTOL)
    assert sorted(words) == sorted(entry["word"] for entry in entries)
    for entry in entries:
        other = words[entry["word"]]
        assert other["cos_theta_i"] == pytest.approx(entry["cos_theta_i"], rel=0,
                                                     abs=COS_ATOL)
        assert other["w_i"] == pytest.approx(entry["w_i"], rel=RTOL)


def test_nulltest(runs):
    one, two = (dict(run["nulltest"]) for run in runs)
    null = one.pop("null")
    assert_record_close(null, two.pop("null"), RTOL)
    # z = (rpd - mu) / sigma carries the RPD's gap divided by sigma, and so do
    # z_se and the p-values (a normal density is below 1).
    z_atol = RTOL * (one["observed_rpd"] + null["mu"]) / null["sigma"]
    keys = ("z", "z_se", "p_two_sided", "p_one_sided")
    assert_record_close({key: one.pop(key) for key in keys},
                        {key: two.pop(key) for key in keys}, 0.0, z_atol)
    assert_record_close(one, two, RTOL)


def test_train_svd_files_after_loading(runs):
    one, two = (run["trained"] for run in runs)
    assert one.vocab == two.vocab
    scale = np.abs(one.matrix).max(axis=0)
    np.testing.assert_allclose(two.matrix / scale, one.matrix / scale, rtol=PRINT_RTOL,
                               atol=FACTOR_RTOL)

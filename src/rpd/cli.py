"""Command-line interface.

Single-record results are printed as JSON; matrices and tables as TSV.
Exit codes: 0 success, 1 internal error, 2 usage or input error.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import click

from . import __version__
from .errors import RpdError
from .evaluation import (
    AnalogyDataset,
    SimilarityDataset,
    evaluate,
    load_analogy_dataset,
    load_similarity_dataset,
    perf_vs_rpd_study,
)
from .layout import layout_from_distances
from .metric import decompose_per_word, rpd, rpd_pairwise_matrix
from .nullmodel import dependence_test
from .spectral import (SIGNALS, WEIGHTINGS, count_cooccurrences, read_corpus, save_counts,
                       train_spectral_embedding)
from .store import (EmbeddingMatrix, _is_word, align_vocabularies, load_embeddings,
                    save_embeddings)


def _emit(text: str, output: str | None) -> None:
    if output is None:
        click.echo(text, nl=not text.endswith("\n"))
    else:
        Path(output).write_text(text if text.endswith("\n") else text + "\n",
                                encoding="utf-8")


def _emit_json(payload: dict, output: str | None) -> None:
    """The one JSON form every single-record command prints."""
    _emit(json.dumps(payload, indent=2), output)


def _load_datasets(
    similarity: str | None, analogy: str | None
) -> tuple[SimilarityDataset | None, AnalogyDataset | None]:
    """The similarity and analogy datasets named on the command line, at least one."""
    if similarity is None and analogy is None:
        raise click.UsageError("provide --similarity and/or --analogy")
    return (load_similarity_dataset(similarity) if similarity else None,
            load_analogy_dataset(analogy) if analogy else None)


def _parse_named(specs: tuple[str, ...]) -> list[tuple[str, EmbeddingMatrix]]:
    """The ``--emb NAME=PATH`` embeddings, loaded once every spec is checked."""
    named = [spec.partition("=") for spec in specs]
    for spec, (name, sep, path) in zip(specs, named):
        if not sep or not name or not path:
            raise click.UsageError(f"--emb expects NAME=PATH, got {spec!r}")
        if not _is_word(name):
            raise click.UsageError(f"--emb NAME must be a word without whitespace, got {name!r}")
    return [(name, load_embeddings(path)) for name, _, path in named]


class _Commands(click.Group):
    """The command group: an input error in any command prints ``error: …``, exit 2."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (RpdError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)


@click.group(cls=_Commands)
def main() -> None:
    """Distances, dependence tests, and spectral trainers for embedding spaces.

    An embedding file is word2vec text when its first line is two integers,
    the header "n d", and GloVe text (no header) otherwise.
    """


@main.command("pair")
@click.option("--left", required=True, type=click.Path())
@click.option("--right", required=True, type=click.Path())
@click.option("--decompose", is_flag=True, help="Include the per-word breakdown.")
@click.option("--top-k", type=click.IntRange(min=0), default=None,
              help="Keep only the K most divergent words (implies --decompose).")
@click.option("--output", type=click.Path(), default=None)
def cmd_pair(left, right, decompose, top_k, output):
    """Distance between two embedding files, as a JSON report."""
    pair = align_vocabularies(load_embeddings(left), load_embeddings(right))
    if decompose or top_k is not None:
        report = decompose_per_word(pair)
        report = replace(report, per_word=report.per_word[:top_k])  # None keeps all
    else:
        report = rpd(pair)
    _emit_json({**report.to_dict(), **pair.provenance(), "version": __version__}, output)


@main.command("matrix")
@click.option("--emb", "embs", multiple=True, required=True, metavar="NAME=PATH")
@click.option("--common-vocab", is_flag=True,
              help="Restrict every embedding to the global vocabulary intersection.")
@click.option("--output", type=click.Path(), default=None)
def cmd_matrix(embs, common_vocab, output):
    """Pairwise distance matrix over named embeddings, as TSV."""
    result = rpd_pairwise_matrix(_parse_named(embs), common_vocab=common_vocab)
    _emit(result.to_tsv(), output)


@main.command("nulltest")
@click.option("--left", required=True, type=click.Path())
@click.option("--right", required=True, type=click.Path())
@click.option("--replicates", type=click.IntRange(min=2), default=1000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--one-sided", is_flag=True,
              help="Base the printed decision on the lower-tail p-value; "
                   "reject_at_0_01 is always two-sided.")
@click.option("--samples-out", type=click.Path(), default=None,
              help="Write the raw null draws, one per line.")
@click.option("--output", type=click.Path(), default=None)
def cmd_nulltest(left, right, replicates, seed, one_sided, samples_out, output):
    """Dependence z-test of two embedding files against the Monte Carlo null.

    Each replicate is the RPD of two independent Gaussian spaces of the aligned
    pair's shape, drawn exactly through the Bartlett factor of their joint Gram
    matrix: O(min(n, d1+d2)·(d1+d2)²) per replicate, independent of the
    vocabulary size n beyond d1+d2. A word that is all zero on both sides adds
    nothing to any Gram block, so the observed RPD is that of the other words
    and the null is drawn at their count. The JSON reports the Monte Carlo
    standard errors of the null's mu and sigma and of z.
    """
    pair = align_vocabularies(load_embeddings(left), load_embeddings(right))
    result = dependence_test(pair, replicates=replicates, seed=seed, one_sided=one_sided)
    if samples_out is not None:
        result.null.save_samples(samples_out)
    _emit_json({**result.to_dict(), "version": __version__}, output)


@main.command("train-svd")
@click.option("--corpus", required=True, type=click.Path())
@click.option("--signal", type=click.Choice(list(SIGNALS)), default="pmi", show_default=True)
@click.option("--dim", type=click.IntRange(min=1), default=300, show_default=True)
@click.option("--window", type=click.IntRange(min=1), default=10, show_default=True)
@click.option("--min-count", type=click.IntRange(min=1), default=10, show_default=True)
@click.option("--weighting", type=click.Choice(WEIGHTINGS), default="flat", show_default=True)
@click.option("--no-lowercase", is_flag=True)
@click.option("--save-counts", "counts_out", type=click.Path(), default=None,
              help="Also persist the co-occurrence counts as a triple file.")
@click.option("--output", required=True, type=click.Path(),
              help="Embedding file to write (word2vec text format).")
def cmd_train_svd(corpus, signal, dim, window, min_count, weighting, no_lowercase, counts_out,
                  output):
    """Train a spectral embedding from a plain-text corpus."""
    # The documents are dropped once counted, before the SVD needs the memory.
    counts = count_cooccurrences(read_corpus(corpus, lowercase=not no_lowercase),
                                 window=window, min_count=min_count, weighting=weighting)
    emb = train_spectral_embedding(counts, signal, dim)
    if counts_out is not None:
        save_counts(counts, counts_out)
    save_embeddings(emb, output)
    click.echo(f"wrote {emb.n} x {emb.dim} embedding to {output}", err=True)


@main.command("eval")
@click.option("--emb", "emb_path", required=True, type=click.Path())
@click.option("--similarity", type=click.Path(), default=None)
@click.option("--analogy", type=click.Path(), default=None)
@click.option("--output", type=click.Path(), default=None)
def cmd_eval(emb_path, similarity, analogy, output):
    """Score an embedding on similarity and/or analogy datasets (JSON)."""
    sim_ds, ana_ds = _load_datasets(similarity, analogy)
    emb = load_embeddings(emb_path)
    _emit_json(evaluate(emb, sim_ds, ana_ds).to_dict(), output)


@main.command("study")
@click.option("--baseline", required=True, type=click.Path())
@click.option("--emb", "embs", multiple=True, required=True, metavar="NAME=PATH")
@click.option("--similarity", type=click.Path(), default=None)
@click.option("--analogy", type=click.Path(), default=None)
@click.option("--output", type=click.Path(), default=None)
def cmd_study(baseline, embs, similarity, analogy, output):
    """Distance-vs-performance study against a baseline embedding (TSV)."""
    sim_ds, ana_ds = _load_datasets(similarity, analogy)
    base = load_embeddings(baseline)
    result = perf_vs_rpd_study(base, _parse_named(embs), sim_ds, ana_ds)
    _emit(result.to_tsv(), output)


@main.command("map")
@click.option("--emb", "embs", multiple=True, required=True, metavar="NAME=PATH")
@click.option("--anchors", required=True, metavar="NAME,NAME",
              help="Two embedding names fixed to the origin and positive x-axis.")
@click.option("--common-vocab", is_flag=True)
@click.option("--output", type=click.Path(), default=None)
def cmd_map(embs, anchors, common_vocab, output):
    """2D layout of embedding spaces from their pairwise distances (TSV)."""
    parts = [p.strip() for p in anchors.split(",")]
    if len(parts) != 2 or not all(parts):
        raise click.UsageError(f"--anchors expects NAME,NAME, got {anchors!r}")
    matrix = rpd_pairwise_matrix(_parse_named(embs), common_vocab=common_vocab)
    result = layout_from_distances(matrix.values, matrix.names, parts[0], parts[1])
    _emit(result.to_tsv(), output)


if __name__ == "__main__":
    main()

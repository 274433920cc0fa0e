"""Unit tests for the embedding applications (Force2Vec, VERSE, sampling,
classification)."""

import time

import numpy as np
import pytest

from repro.apps import (
    EMBEDDING_BACKENDS,
    Force2Vec,
    Force2VecConfig,
    LogisticRegressionClassifier,
    NegativeSampler,
    Verse,
    VerseConfig,
    accuracy,
    evaluate_embeddings,
    f1_macro,
    f1_micro,
    minibatch_indices,
    train_test_split_indices,
)
from repro.errors import BackendError, ShapeError
from repro.graphs import Graph
from repro.graphs.generators import stochastic_block_model
from repro.sparse import random_csr


@pytest.fixture(scope="module")
def community_graph():
    """A small, strongly clustered graph whose embedding is learnable."""
    A, labels = stochastic_block_model(240, num_blocks=3, avg_degree=10, intra_fraction=0.95, seed=1)
    return Graph(A, labels=labels, name="sbm")


# ------------------------------------------------------------------ #
# Sampling utilities
# ------------------------------------------------------------------ #
def test_minibatch_indices_cover_all_vertices():
    batches = list(minibatch_indices(103, 25, seed=0))
    all_ids = np.concatenate(batches)
    assert sorted(all_ids.tolist()) == list(range(103))
    assert all(len(b) <= 25 for b in batches)


def test_minibatch_indices_drop_last():
    batches = list(minibatch_indices(103, 25, seed=0, drop_last=True))
    assert all(len(b) == 25 for b in batches)


def test_minibatch_indices_no_shuffle_is_ordered():
    batches = list(minibatch_indices(10, 4, shuffle=False))
    assert list(batches[0]) == [0, 1, 2, 3]


def test_minibatch_indices_validation():
    with pytest.raises(ShapeError):
        list(minibatch_indices(10, 0))
    with pytest.raises(ShapeError):
        list(minibatch_indices(-1, 5))


def test_negative_sampler_uniform_and_biased():
    uniform = NegativeSampler(50, seed=0)
    out = uniform.sample((4, 3))
    assert out.shape == (4, 3)
    assert out.min() >= 0 and out.max() < 50

    degrees = np.zeros(50)
    degrees[7] = 1000.0  # heavily bias towards vertex 7
    biased = NegativeSampler(50, degrees=degrees, seed=0)
    samples = biased.sample(500)
    assert (samples == 7).mean() > 0.5


def test_negative_sampler_stream_equals_generator_choice():
    """The cached-CDF draw is bitwise ``Generator.choice(p=...)``, across
    successive calls and across a get_state/set_state round trip."""
    degrees = np.random.default_rng(1).integers(0, 40, size=300)
    weights = np.power(np.maximum(degrees.astype(np.float64), 1e-12), 0.75)
    probs = weights / weights.sum()
    sampler = NegativeSampler(300, degrees=degrees, seed=9)
    reference = np.random.default_rng(9)
    for size in (1280, 7, 1):
        drawn = sampler.sample(size)
        assert drawn.dtype == np.int64
        assert np.array_equal(drawn, reference.choice(300, size, p=probs))
    state = sampler.get_state()
    expected = reference.choice(300, 64 * 5, p=probs).reshape(64, 5)
    assert np.array_equal(sampler.sample((64, 5)), expected)
    resumed = NegativeSampler(300, degrees=degrees, seed=123)
    resumed.set_state(state)
    assert np.array_equal(resumed.sample((64, 5)), expected)


def test_negative_sampler_validation():
    with pytest.raises(ShapeError):
        NegativeSampler(0)
    with pytest.raises(ShapeError):
        NegativeSampler(10, degrees=np.ones(3))


# ------------------------------------------------------------------ #
# Classification / metrics
# ------------------------------------------------------------------ #
def test_f1_and_accuracy_perfect_and_empty():
    y = np.array([0, 1, 2, 1])
    assert f1_micro(y, y) == 1.0
    assert f1_macro(y, y) == 1.0
    assert accuracy(y, y) == 1.0
    assert f1_micro(np.array([]), np.array([])) == 0.0


def test_f1_micro_equals_accuracy_single_label():
    y_true = np.array([0, 1, 2, 2, 1, 0])
    y_pred = np.array([0, 2, 2, 1, 1, 0])
    assert f1_micro(y_true, y_pred) == pytest.approx(accuracy(y_true, y_pred))


def test_f1_shape_mismatch():
    with pytest.raises(ShapeError):
        f1_micro(np.array([0, 1]), np.array([0]))


def test_logistic_regression_learns_separable_data():
    rng = np.random.default_rng(0)
    X = np.concatenate([rng.normal(i * 3, 0.5, size=(60, 4)) for i in range(3)])
    y = np.repeat(np.arange(3), 60)
    clf = LogisticRegressionClassifier(epochs=200, learning_rate=0.5, seed=0)
    clf.fit(X, y)
    assert accuracy(y, clf.predict(X)) > 0.95
    probs = clf.predict_proba(X)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)


def test_logistic_regression_unfitted_raises():
    clf = LogisticRegressionClassifier()
    with pytest.raises(RuntimeError):
        clf.predict(np.ones((2, 3)))


def test_train_test_split_partition():
    train, test = train_test_split_indices(100, 0.6, seed=1)
    assert len(train) == 60 and len(test) == 40
    assert set(train).isdisjoint(test)
    with pytest.raises(ShapeError):
        train_test_split_indices(10, 1.5)


def test_evaluate_embeddings_protocol():
    rng = np.random.default_rng(0)
    emb = np.concatenate([rng.normal(i * 4, 0.5, size=(50, 8)) for i in range(2)])
    labels = np.repeat(np.arange(2), 50)
    metrics = evaluate_embeddings(emb, labels, seed=0)
    assert metrics["f1_micro"] > 0.9
    assert metrics["num_train"] + metrics["num_test"] == 100


# ------------------------------------------------------------------ #
# Force2Vec
# ------------------------------------------------------------------ #
def test_force2vec_config_validation():
    with pytest.raises(BackendError):
        Force2VecConfig(backend="tensorflow")
    with pytest.raises(ShapeError):
        Force2VecConfig(dim=0)
    with pytest.raises(ShapeError):
        Force2VecConfig(negative_samples=-1)
    assert set(EMBEDDING_BACKENDS) >= {"fused", "unfused", "dense"}


def test_force2vec_requires_square_adjacency():
    A = random_csr(10, 20, density=0.2, seed=0)
    with pytest.raises(ShapeError):
        Force2Vec(Graph(A))


def test_force2vec_training_reduces_loss(community_graph):
    cfg = Force2VecConfig(dim=16, epochs=6, learning_rate=0.1, seed=0, batch_size=64)
    model = Force2Vec(community_graph, cfg)
    loss_before = model.loss_estimate(seed=1)
    model.train()
    loss_after = model.loss_estimate(seed=1)
    assert loss_after < loss_before
    assert len(model.history) == 6
    assert model.average_epoch_seconds() > 0


def test_force2vec_embeddings_cluster_by_community(community_graph):
    cfg = Force2VecConfig(dim=32, epochs=15, learning_rate=0.1, seed=0, batch_size=64)
    model = Force2Vec(community_graph, cfg)
    emb = model.train()
    metrics = evaluate_embeddings(emb, community_graph.labels, seed=0)
    assert metrics["f1_micro"] > 0.6


def test_force2vec_backends_agree_from_same_seed(community_graph):
    embeddings = {}
    for backend in ["fused", "unfused"]:
        cfg = Force2VecConfig(dim=8, epochs=2, seed=3, backend=backend, batch_size=64)
        embeddings[backend] = Force2Vec(community_graph, cfg).train()
    assert np.allclose(embeddings["fused"], embeddings["unfused"], atol=1e-3)


def test_force2vec_zero_negative_samples(community_graph):
    cfg = Force2VecConfig(dim=8, epochs=1, seed=0, negative_samples=0, batch_size=64)
    emb = Force2Vec(community_graph, cfg).train()
    assert np.isfinite(emb).all()


def test_force2vec_callback_invoked(community_graph):
    seen = []
    cfg = Force2VecConfig(dim=8, epochs=2, seed=0, batch_size=128)
    Force2Vec(community_graph, cfg).train(callback=lambda s: seen.append(s.epoch))
    assert seen == [0, 1]


# ------------------------------------------------------------------ #
# VERSE
# ------------------------------------------------------------------ #
def test_verse_config_validation():
    with pytest.raises(ShapeError):
        VerseConfig(dim=0)
    with pytest.raises(ShapeError):
        VerseConfig(noise_samples=-2)


def test_verse_training_runs_and_is_finite(community_graph):
    cfg = VerseConfig(dim=16, epochs=2, seed=0, batch_size=64)
    model = Verse(community_graph, cfg)
    emb = model.train()
    assert emb.shape == (community_graph.num_vertices, 16)
    assert np.isfinite(emb).all()
    assert len(model.history) == 2


def test_verse_requires_square_adjacency():
    A = random_csr(10, 20, density=0.2, seed=0)
    with pytest.raises(ShapeError):
        Verse(Graph(A))


# ------------------------------------------------------------------ #
# Epoch loop contracts shared by Force2Vec and VERSE
# ------------------------------------------------------------------ #
def _reference_epochs(model, epochs, gradient):
    """The trainers' epoch loop with a fresh float32 copy of the embeddings
    per minibatch (``gradient`` calls ``_batch_gradient`` without ``Y``)."""
    cfg = model.config
    for epoch in range(epochs):
        for batch in minibatch_indices(
            model.graph.num_vertices, cfg.batch_size, seed=cfg.seed + epoch
        ):
            model.embeddings[batch] -= cfg.learning_rate * gradient(model, batch)


def _trainer_pairs(graph):
    """(name, trained model, reference model, per-batch reference gradient)."""
    for backend in EMBEDDING_BACKENDS:
        cfg = Force2VecConfig(dim=8, seed=4, backend=backend, batch_size=64)
        yield backend, Force2Vec(graph, cfg), Force2Vec(graph, cfg), (
            lambda m, batch: m._batch_gradient(batch, None)
        )
    cfg = VerseConfig(dim=8, seed=4, batch_size=64)
    yield "verse", Verse(graph, cfg), Verse(graph, cfg), (
        lambda m, batch: m._batch_gradient(batch)
    )


def test_epoch_scoped_features_are_bitwise_the_per_batch_copy(community_graph):
    for name, model, reference, gradient in _trainer_pairs(community_graph):
        model.train_epoch(0)
        model.train_epoch(1)
        _reference_epochs(reference, 2, gradient)
        assert np.array_equal(model.embeddings, reference.embeddings), name
        assert model._sampler.get_state() == reference._sampler.get_state(), name


@pytest.mark.parametrize("backend", EMBEDDING_BACKENDS + ("verse",))
def test_kernel_seconds_counts_only_kernel_calls(community_graph, backend, monkeypatch):
    if backend == "verse":
        model = Verse(community_graph, VerseConfig(dim=8, seed=0, batch_size=64))
    else:
        cfg = Force2VecConfig(dim=8, seed=0, backend=backend, batch_size=64)
        model = Force2Vec(community_graph, cfg)
    draw = model._sampler.sample
    nap = 0.01

    def slow_sample(shape):
        time.sleep(nap)
        return draw(shape)

    monkeypatch.setattr(model._sampler, "sample", slow_sample)
    stats = model.train_epoch(0)
    assert stats.num_batches == 4
    assert stats.kernel_seconds > 0.0
    # The sampler's sleeps and the kernel calls are disjoint slices of the epoch.
    assert stats.kernel_seconds + stats.num_batches * nap <= stats.seconds

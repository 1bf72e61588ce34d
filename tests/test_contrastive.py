"""Triplet loss, its gradients, and contrastive encoder training."""

import numpy as np
import pytest

from valnov.contrastive import (
    ContrastiveConfig,
    constraint_satisfaction,
    contrastive_train,
    distance,
    triplet_loss,
    triplet_loss_and_embedding_grads,
)
from valnov.corpus import TripletExample, extract_triplets
from valnov.encoder import EncoderConfig, ReferenceEncoder
from valnov.errors import ConfigurationError, DataError
from valnov.synthetic import make_separable_corpus


class TestDistance:
    def test_cosine_identical(self):
        v = np.array([1.0, 2.0, 3.0])
        assert distance(v, 2 * v, "cosine") == pytest.approx(0.0)

    def test_cosine_opposite(self):
        v = np.array([1.0, 0.0])
        assert distance(v, -v, "cosine") == pytest.approx(2.0)

    def test_cosine_orthogonal(self):
        assert distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(1.0)

    def test_cosine_zero_vector_rejected(self):
        with pytest.raises(DataError):
            distance(np.zeros(2), np.array([1.0, 0.0]), "cosine")

    def test_euclidean(self):
        assert distance(np.array([0.0, 0.0]), np.array([3.0, 4.0]), "euclidean") == 5.0

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            distance(np.ones(2), np.ones(2), "manhattan")


class TestTripletLoss:
    def test_satisfied_by_margin_is_zero(self):
        a = np.array([1.0, 0.0])
        p = np.array([1.0, 0.0])
        n = np.array([-1.0, 0.0])
        # d(a,p)=0, d(a,n)=2 -> 0 - 2 + 1 < 0
        assert triplet_loss(a, p, n, margin=1.0) == 0.0

    def test_violated_pays_linear(self):
        a = np.array([1.0, 0.0])
        p = np.array([-1.0, 0.0])
        n = np.array([1.0, 0.0])
        # d(a,p)=2, d(a,n)=0 -> 2 - 0 + 0.5
        assert triplet_loss(a, p, n, margin=0.5) == pytest.approx(2.5)

    def test_zero_margin_at_equality(self):
        a = np.array([1.0, 1.0])
        p = np.array([2.0, 0.0])
        n = np.array([0.0, 2.0])
        assert triplet_loss(a, p, n, margin=0.0) == pytest.approx(0.0)

    def test_nan_distance_is_not_zero_loss(self):
        a = np.array([np.nan, 0.0])
        p = np.array([1.0, 0.0])
        n = np.array([0.0, 1.0])
        assert np.isnan(triplet_loss(a, p, n, dist="euclidean"))


class TestEmbeddingGrads:
    @pytest.mark.parametrize("dist", ["cosine", "euclidean"])
    def test_matches_finite_differences(self, dist):
        rng = np.random.default_rng(4)
        a, p, n = rng.normal(size=(3, 5))
        margin = 5.0  # keep the hinge active so the grad is informative

        loss, ga, gp, gn = triplet_loss_and_embedding_grads(a, p, n, margin, dist)
        assert loss > 0

        eps = 1e-7
        for vec, grad in ((a, ga), (p, gp), (n, gn)):
            for i in range(vec.size):
                orig = vec[i]
                vec[i] = orig + eps
                up = triplet_loss(a, p, n, margin, dist)
                vec[i] = orig - eps
                down = triplet_loss(a, p, n, margin, dist)
                vec[i] = orig
                fd = (up - down) / (2 * eps)
                assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_inactive_hinge_gives_zero_grads(self):
        a = np.array([1.0, 0.0])
        p = np.array([1.0, 0.1])
        n = np.array([-1.0, 0.0])
        loss, ga, gp, gn = triplet_loss_and_embedding_grads(a, p, n, 0.1, "cosine")
        assert loss == 0.0
        assert not ga.any() and not gp.any() and not gn.any()


class TestConfig:
    def test_defaults_valid(self):
        cfg = ContrastiveConfig()
        assert cfg.distance == "cosine"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"margin": -0.1},
            {"learning_rate": -1.0},
            {"epochs": 0},
            {"batch_size": 0},
            {"distance": "hamming"},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ContrastiveConfig(**kwargs)


SMALL = EncoderConfig(vocab_buckets=256, embed_dim=12, projection_dim=8, seed=0)


def separable_triplets():
    train_set, _ = make_separable_corpus(n_train=120, n_dev=0)
    return extract_triplets(train_set)


class TestContrastiveTrain:
    def test_empty_triplets_rejected(self):
        with pytest.raises(ConfigurationError, match="skip"):
            contrastive_train(ReferenceEncoder(SMALL), [], ContrastiveConfig())

    def test_improves_constraint_satisfaction(self):
        triplets = separable_triplets()
        encoder = ReferenceEncoder(SMALL)
        before = constraint_satisfaction(encoder, triplets)
        result = contrastive_train(
            encoder, triplets, ContrastiveConfig(learning_rate=1e-2, epochs=3)
        )
        after = constraint_satisfaction(result.encoder, triplets)
        assert after > before
        assert after >= 0.9

    def test_losses_decrease(self):
        triplets = separable_triplets()
        result = contrastive_train(
            ReferenceEncoder(SMALL),
            triplets,
            ContrastiveConfig(learning_rate=1e-2, epochs=4),
        )
        assert result.epoch_losses[-1] < result.epoch_losses[0]

    def test_deterministic(self):
        triplets = separable_triplets()
        outs = []
        for _ in range(2):
            enc = ReferenceEncoder(SMALL)
            contrastive_train(
                enc, triplets, ContrastiveConfig(learning_rate=1e-3, epochs=2, seed=9)
            )
            outs.append(enc.encode(["affirmed fresh"]))
        assert np.array_equal(outs[0], outs[1])

    def test_euclidean_distance_trains(self):
        triplets = separable_triplets()[:40]
        result = contrastive_train(
            ReferenceEncoder(SMALL),
            triplets,
            ContrastiveConfig(learning_rate=1e-3, epochs=2, distance="euclidean"),
        )
        assert len(result.epoch_losses) == 2
        assert all(np.isfinite(x) for x in result.epoch_losses)

    def test_mutates_passed_encoder(self):
        triplets = separable_triplets()[:20]
        enc = ReferenceEncoder(SMALL)
        before = enc.encode(["affirmed fresh"]).copy()
        result = contrastive_train(
            enc, triplets, ContrastiveConfig(learning_rate=1e-2, epochs=1)
        )
        assert result.encoder is enc
        assert not np.array_equal(enc.encode(["affirmed fresh"]), before)


class TestConstraintSatisfaction:
    def test_empty_is_zero(self):
        assert constraint_satisfaction(ReferenceEncoder(SMALL), []) == 0.0

    def test_bounds(self):
        triplets = [
            TripletExample(anchor="a b", positive="c d", negative="e f", topic="t")
        ]
        value = constraint_satisfaction(ReferenceEncoder(SMALL), triplets)
        assert value in (0.0, 1.0)

import numpy as np
import pytest

from mwmatch.assignment import lap_max
from mwmatch.errors import SizeError
from mwmatch.evalbench import EtaTopology, avg_error_rate, make_instance
from mwmatch.matchmodel import SimilarityTensor
from mwmatch.matrixcore import sym_eigs_topk
from mwmatch.syncbaseline import SYNC_SIZE_CAP, permutation_synchronization

import util


class TestNoiselessRecovery:
    def test_four_sets(self):
        truth, tensor = util.noiseless_instance(4, 3, seed=301)
        s = permutation_synchronization(tensor)
        assert avg_error_rate(s, truth) == 0.0

    def test_anchor_is_identity(self):
        _, tensor = util.noiseless_instance(4, 3, seed=302)
        s = permutation_synchronization(tensor)
        assert s.maps[0].tolist() == [0, 1, 2]

    def test_top_eigenvalue_structure(self):
        # consistent noiseless stacking has eigenvalue n with multiplicity m
        n, m = 4, 3
        _, tensor = util.noiseless_instance(n, m, seed=303)
        big = np.eye(n * m)
        for i, j in tensor.pairs():
            blk = tensor.block(i, j)
            big[i * m:(i + 1) * m, j * m:(j + 1) * m] = blk
            big[j * m:(j + 1) * m, i * m:(i + 1) * m] = blk.T
        vals, _ = sym_eigs_topk(big, m + 1)
        assert np.allclose(vals[:m], float(n))
        assert vals[m] < n - 0.5

    def test_two_sets_matches_single_assignment(self):
        truth, tensor = util.noiseless_instance(2, 4, seed=304)
        s = permutation_synchronization(tensor)
        want = lap_max(tensor.block(0, 1))
        assert np.array_equal(s.pairwise(0, 1).map, want)

    def test_many_seeds(self):
        for seed in range(10):
            truth, tensor = util.noiseless_instance(3 + seed % 3, 2 + seed % 4, seed=310 + seed)
            s = permutation_synchronization(tensor)
            assert avg_error_rate(s, truth) == 0.0


class TestNoisyBehavior:
    def test_mild_noise_still_recovers(self):
        truth, tensor = util.noisy_instance(6, 4, eta=0.02, seed=320)
        s = permutation_synchronization(tensor)
        assert avg_error_rate(s, truth) == 0.0

    def test_anchor_identity_under_noise(self):
        for seed in range(5):
            _, tensor = util.noisy_instance(5, 4, eta=0.2, seed=330 + seed)
            s = permutation_synchronization(tensor)
            assert s.maps[0].tolist() == [0, 1, 2, 3]

    def test_output_shape(self):
        _, tensor = util.noisy_instance(5, 3, eta=0.1, seed=340)
        s = permutation_synchronization(tensor)
        assert s.n == 5 and s.m == 3


class TestEdgeCases:
    def test_single_set(self):
        for m in (1, 3, 5):
            s = permutation_synchronization(util.uniform_tensor(1, m, seed=350))
            assert s.maps.tolist() == [list(range(m))]

    def test_size_cap(self):
        m = SYNC_SIZE_CAP // 2 + 1
        blk = np.zeros((m, m))
        t = SimilarityTensor(2, blk[None])
        with pytest.raises(SizeError):
            permutation_synchronization(t)


class TestFullEigendecompositionReference:
    @pytest.mark.parametrize("n,m,topology", [
        (20, 8, EtaTopology("star", 0.01, 0.30)),
        (12, 6, EtaTopology("uniform", 0.0, 0.30)),
    ])
    def test_same_solutions(self, n, m, topology):
        for seed in range(10):
            _, _, t = make_instance(n, m, topology, seed)
            assert permutation_synchronization(t) == util.reference_sync(t)

    def test_same_solutions_on_benchmark_cell(self):
        # the acceptance benchmark's star cell, where the stacked matrix is
        # 1200 x 1200 and the top 20 eigenpairs come from Lanczos
        for seed in range(3):
            _, _, t = make_instance(60, 20, EtaTopology("star", 0.01, 0.30), seed)
            assert permutation_synchronization(t) == util.reference_sync(t)

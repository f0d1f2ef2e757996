"""Calibration invariants: the profiles must encode the paper's claims."""

from dataclasses import replace

import pytest

from repro.frameworks import Framework
from repro.frameworks.nn import CONVS
from repro.frameworks.profiles import DGLITE_PROFILE, PROFILES, PYGLITE_PROFILE
from repro.tensor.context import CostProfile


class TestProfileRegistry:
    def test_both_frameworks_registered(self):
        assert set(PROFILES) == {"dglite", "pyglite"}

    def test_sampler_cost_lookup(self):
        costs = DGLITE_PROFILE.sampler_costs("neighbor")
        assert costs.per_item > 0
        with pytest.raises(KeyError):
            DGLITE_PROFILE.sampler_costs("nonexistent")


class TestObservation1Loader:
    """PyG's data loader is lighter than DGL's graph-centric loader."""

    def test_pyg_cheaper_per_node_and_edge(self):
        assert PYGLITE_PROFILE.loader_per_node < DGLITE_PROFILE.loader_per_node
        assert PYGLITE_PROFILE.loader_per_edge < DGLITE_PROFILE.loader_per_edge


class TestObservation2Samplers:
    """DGL samplers are native (C++/OpenMP); PyG's are Python."""

    @pytest.mark.parametrize("kind", ["neighbor", "cluster", "saint_rw"])
    def test_dgl_per_item_cheaper(self, kind):
        assert (DGLITE_PROFILE.sampler_costs(kind).per_item
                < PYGLITE_PROFILE.sampler_costs(kind).per_item)

    def test_saint_gap_smaller_than_neighbor_gap(self):
        """'The performance gap is relatively small for GraphSAINT sampler.'"""
        neighbor_ratio = (PYGLITE_PROFILE.sampler_costs("neighbor").per_item
                          / DGLITE_PROFILE.sampler_costs("neighbor").per_item)
        saint_ratio = (PYGLITE_PROFILE.sampler_costs("saint_rw").per_item
                       / DGLITE_PROFILE.sampler_costs("saint_rw").per_item)
        assert saint_ratio < neighbor_ratio

    def test_only_pyg_requires_csc_conversion(self):
        assert PYGLITE_PROFILE.requires_csc
        assert not DGLITE_PROFILE.requires_csc
        assert PYGLITE_PROFILE.csc_convert_per_edge > 0


class TestObservation3Kernels:
    """DGL's CPU message-passing kernels beat PyG's; GEMM ties (BLAS)."""

    @pytest.mark.parametrize("family", ["spmm", "sddmm", "scatter"])
    def test_dgl_cpu_sparse_kernels_faster(self, family):
        dgl_eff = DGLITE_PROFILE.cost.eff(family, "cpu")
        pyg_eff = PYGLITE_PROFILE.cost.eff(family, "cpu")
        assert dgl_eff[0] > pyg_eff[0]

    def test_gemm_is_shared_blas(self):
        assert (DGLITE_PROFILE.cost.eff("gemm", "cpu")
                == PYGLITE_PROFILE.cost.eff("gemm", "cpu"))

    def test_dgl_dispatch_overhead_higher(self):
        """Why PyG wins on small graphs on GPU."""
        assert (DGLITE_PROFILE.cost.dispatch_overhead
                > PYGLITE_PROFILE.cost.dispatch_overhead)

    def test_gpu_kernels_more_efficient_than_cpu(self):
        for profile in (DGLITE_PROFILE, PYGLITE_PROFILE):
            for family in ("spmm", "sddmm", "gemm"):
                assert (profile.cost.eff(family, "gpu")[0]
                        > profile.cost.eff(family, "cpu")[0])

    def test_fused_layer_sets(self):
        paper_eight = {"gcn", "gcn2", "cheb", "sage", "gat", "gatv2", "tag", "sg"}
        assert paper_eight <= DGLITE_PROFILE.fused_convs
        # PyG lacks fused support exactly for Cheb/GAT/GATv2 (and the
        # extension GIN layer, whose PyG default is MessagePassing).
        assert paper_eight - PYGLITE_PROFILE.fused_convs == {"cheb", "gat", "gatv2"}
        assert "gin" not in PYGLITE_PROFILE.fused_convs


class TestConvTableIsALaw:
    """``profile.fused_convs`` x :data:`CONVS` decides every lowering."""

    @pytest.mark.parametrize("profile", PROFILES.values(), ids=list(PROFILES))
    def test_profiles_and_table_agree(self, profile):
        assert profile.fused_convs <= set(CONVS)
        for kind in set(CONVS) - profile.fused_convs:
            assert CONVS[kind][1] is not None, kind

    @pytest.mark.parametrize("profile", PROFILES.values(), ids=list(PROFILES))
    @pytest.mark.parametrize("kind", CONVS)
    def test_conv_builds_the_lowering_the_profile_declares(self, profile, kind):
        fused, unfused = CONVS[kind]
        layer = Framework(profile).conv(kind, 8, 8, seed=0)
        assert type(layer) is (fused if kind in profile.fused_convs else unfused)

    def test_unfused_kind_without_an_unfused_lowering_is_rejected(self):
        profile = replace(PYGLITE_PROFILE,
                          fused_convs=PYGLITE_PROFILE.fused_convs - {"gcn"})
        with pytest.raises(ValueError, match="'gcn'"):
            Framework(profile).conv("gcn", 8, 8)


class TestGpuSampling:
    """GPU/UVA sampling exists only in DGL (GraphSAGE-only at model level)."""

    def test_dgl_supports_gpu_and_uva(self):
        assert DGLITE_PROFILE.supports_gpu_sampling
        assert DGLITE_PROFILE.supports_uva_sampling
        assert DGLITE_PROFILE.gpu_sampler_per_item > 0

    def test_pyg_has_neither(self):
        assert not PYGLITE_PROFILE.supports_gpu_sampling
        assert not PYGLITE_PROFILE.supports_uva_sampling

    def test_gpu_sampler_faster_per_item_than_cpu(self):
        assert (DGLITE_PROFILE.gpu_sampler_per_item
                < DGLITE_PROFILE.sampler_costs("neighbor").per_item)

    def test_prefetch_is_dgl_only(self):
        assert DGLITE_PROFILE.supports_prefetch
        assert not PYGLITE_PROFILE.supports_prefetch


class TestCostProfile:
    def test_default_eff_fallback(self):
        profile = CostProfile(name="x", default_eff=(0.3, 0.4))
        assert profile.eff("unknown", "cpu") == (0.3, 0.4)

    def test_overhead_composition(self):
        profile = CostProfile(name="x", dispatch_overhead=1e-6,
                              op_overhead={("gemm", "cpu"): 2e-6})
        assert profile.overhead("gemm", "cpu") == pytest.approx(3e-6)
        assert profile.overhead("spmm", "cpu") == pytest.approx(1e-6)

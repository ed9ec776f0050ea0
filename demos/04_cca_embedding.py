"""Cross-modal embedding with regularized CCA.

Builds a paired dataset with a shared latent factor, fits CCA, checks the
first canonical correlation against the brute-force direction-grid oracle,
and shows how the fitted model feeds the scenario fusion rules.
"""

import numpy as np

from xmreid import cca, synth

rng = np.random.default_rng(5)

print("== two 2-D views sharing one latent factor ==")
n = 500
latent = rng.standard_normal((n, 1))
x = latent @ rng.standard_normal((1, 2)) + 0.4 * rng.standard_normal((n, 2))
y = latent @ rng.standard_normal((1, 2)) + 0.4 * rng.standard_normal((n, 2))
model = cca.fit_cca(x, y, k=2, ridge=1e-8)
oracle = synth.oracle_cca_grid(x, y)
print(f"fit_cca rho_1 = {model.correlations[0]:.4f}")
print(f"0.5-degree grid oracle = {oracle:.4f}  (gap {abs(model.correlations[0]-oracle):.5f})")
print(f"rho_2 = {model.correlations[1]:.4f}  (noise direction, much weaker)")

print("\n== unit-variance constraint ==")
proj_x = cca.project(model, "x", x)
print("projected train variance per canonical dim:", np.round(proj_x.var(axis=0), 6))

print("\n== correlations are invariant to invertible transforms of a view ==")
transform = rng.standard_normal((2, 2)) + 3.0 * np.eye(2)
moved = cca.fit_cca(x @ transform, y, k=2, ridge=1e-8)
print("original:", np.round(model.correlations, 6))
print("transformed:", np.round(moved.correlations, 6))

print("\n== scenario fusion ==")
config = synth.SynthConfig(identity_count=20, samples_per_view=2, latent_dim=3,
                           vision_dim=12, language_dim=8, seed=3)
dataset = synth.gen_paired(config)
pair_model = cca.fit_cca(dataset.vision, dataset.language, k=3)
for scenario, side in (("VxV", "gallery"), ("LxL", "query"), ("VxL", "gallery"),
                       ("VxL", "query"), ("VxVL", "query"), ("VLxVL", "gallery")):
    fused = cca.fuse(scenario, vision=dataset.vision[0], language=dataset.language[0],
                     model=pair_model, side=side)
    print(f"  {scenario:6s} {side:7s} -> {fused.shape[0]:3d}-dim feature")
bits = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
fused = cca.fuse("VAxVA", vision=dataset.vision[0], attributes=bits)
print(f"  VAxVA  gallery -> {fused.shape[0]:3d}-dim feature "
      f"(bits mapped to +/-1: {fused[-5:]})")

"""The five gallery x query scenarios and the attribute-flip simulation.

Runs the full per-split protocol (fit CCA and the metric on train identities,
rank view-2 probes against a single-shot view-1 gallery) on the calibrated
synthetic benchmark, then degrades per-view attribute annotations by flipping
N bits and watches rank-1 fall.

Expected picture, mirroring the qualitative claims on the real datasets:
cross-modal retrieval is hardest, language alone trails vision alone, and
each fusion step helps: VxL < LxL < VxV < VxVL < VLxVL. With unique
per-identity attributes and no flips VAxVA is perfect, and every flipped bit
costs accuracy.
"""

import time

import numpy as np

from xmreid import evaluation, synth

print("== five scenarios on the reference benchmark (20 splits, seed 42) ==")
config = synth.reference_config()
dataset = synth.gen_paired(config)
splits = synth.gen_splits(config)
pipeline = evaluation.PipelineConfig(cca_k=synth.reference_cca_rank(config))

start = time.perf_counter()
print(f"{'scenario':>9s} {'R1':>7s} {'R5':>7s} {'R10':>7s}")
for scenario in ("VxL", "LxL", "VxV", "VxVL", "VLxVL"):
    report = evaluation.evaluate_scenario(dataset, splits, scenario, pipeline,
                                          master_seed=42)
    print(f"{scenario:>9s} {report.mean_rank(1)*100:7.1f} "
          f"{report.mean_rank(5)*100:7.1f} {report.mean_rank(10)*100:7.1f}")
print(f"({time.perf_counter()-start:.0f}s)")

print("\n== attribute bit flips (10 splits, unique attributes per identity) ==")
attr_config = synth.reference_attribute_config()
attr_dataset = synth.gen_paired(attr_config)
attributes = synth.gen_attributes(attr_config)
attr_dataset.attributes = np.array([attributes.get(i) for i in attr_dataset.identities])
attr_splits = synth.gen_splits(attr_config)

reports = evaluation.attribute_degradation_sweep(attr_dataset, attr_splits,
                                                 [0, 1, 2, 3], master_seed=42)
print(f"{'flips':>6s} {'R1':>7s} {'R5':>7s} {'R10':>7s}")
for n in (0, 1, 2, 3):
    report = reports[n]
    print(f"{n:>6d} {report.mean_rank(1)*100:7.1f} "
          f"{report.mean_rank(5)*100:7.1f} {report.mean_rank(10)*100:7.1f}")
print("\nN=0 is exact 100.0 because identical, unique annotations pin every match;")
print("independent per-view flips then break the agreement one bit at a time.")

"""The five data formats and their byte-exact round trips.

Description corpora (CORPUS), attribute annotations (ATTR) and train/test
splits (SPLIT) are UTF-8 text with LF endings and tab-separated fields.
Feature matrices (FEAT) and embedding tables (EMB) keep a text header, one
label line per row, and then every value as a raw little-endian float64, so
the bits round-trip exactly. Saving what was just loaded reproduces each
file bit for bit. A FEAT file loads as row-aligned columns (identities,
views, matrix), and load_dataset joins FEAT and ATTR files into a Dataset.
"""

import tempfile
from pathlib import Path

import numpy as np

from xmreid import dataio
from xmreid.errors import XmreidError

tmp = tempfile.TemporaryDirectory(prefix="xmreid_formats_")
workdir = Path(tmp.name)
rng = np.random.default_rng(7)

print("== FEAT ==")
# Three row-aligned columns: who, which camera view, and the N x D matrix.
identities = ["alice", "alice", "bob", "bob"]
views = [1, 2, 1, 2]
matrix = rng.standard_normal((4, 4)) * np.array([[1.0], [1.0], [1e-9], [1e9]])
feat = workdir / "demo.feat"
dataio.save_features(identities, views, matrix, feat)
print(feat.read_bytes().split(b"\n", 6)[:6], "+ 4 x 4 x 8 bytes")
again = workdir / "again.feat"
dataio.save_features(*dataio.load_features(feat), again)
print("byte-identical after load->save:", feat.read_bytes() == again.read_bytes())

print("\n== CORPUS ==")
corpus = [("alice", 1, "A short, slim woman with ice-blue jeans."),
          ("alice", 2, "Young woman, pale jeans, dark top.")]
cpath = workdir / "demo.corpus"
dataio.save_corpus(corpus, cpath)
print(dataio.load_corpus(cpath))

print("\n== EMB ==")
table = dataio.EmbeddingTable(dimension=3, vectors={
    "jeans": np.array([0.1, -0.2, 0.3]),
    "woman": np.array([0.5, 0.0, -0.5]),
})
epath = workdir / "demo.emb"
dataio.save_embeddings(table, epath)
print(epath.read_bytes().split(b"\n", 4)[:4], "+ 2 x 3 x 8 bytes")

print("\n== ATTR ==")
attrs = dataio.AttributeTable(width=15, bits={
    "alice": rng.integers(0, 2, 15).astype(np.uint8),
    "bob": rng.integers(0, 2, 15).astype(np.uint8),
})
apath = workdir / "demo.attr"
dataio.save_attributes(attrs, apath)
print(apath.read_text(), end="")

print("\n== SPLIT ==")
splits = [dataio.SplitAssignment(index=1, roles={"alice": "train", "bob": "test"}),
          dataio.SplitAssignment(index=2, roles={"alice": "test", "bob": "train"})]
spath = workdir / "demo.split"
dataio.save_splits(splits, spath)
print(spath.read_text(), end="")

print("\n== FEAT and ATTR files join into one Dataset ==")
dataset = dataio.load_dataset(feat, attributes=apath)
print(dataset.identities, dataset.views, dataset.vision.shape, dataset.attributes.shape)

print("\n== malformed input is rejected, not guessed at ==")
bad = workdir / "bad.feat"
bad.write_bytes(b"XMREID-FEAT 2\n1 3\nalice\t1\n" + np.array([1.0, 2.0], dtype="<f8").tobytes())
try:
    dataio.load_features(bad)  # a body one value short of the 1 x 3 header
except XmreidError as exc:
    print(" ", type(exc).__name__, "-", exc)

tmp.cleanup()

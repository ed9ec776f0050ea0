"""Descriptions to tensors to a trained network, end to end.

Covers tokenization, the word table a run codes once and the descriptions
stored as ids into it, the
three augmentation schemes (word dropping, ranked synonym replacement,
additive Gaussian noise), a small CNN trained to classify identities from
descriptions, and the detector-channel analysis that locates the conv
channel responding to a target concept.
"""

import numpy as np

from xmreid import textcnn, textprep
from xmreid.dataio import EmbeddingTable
from xmreid.rng import stream

print("== tokenization ==")
text = "A short, slim woman wearing ice-blue jeans and sunglasses."
tokens = textprep.tokenize(text)
print(text, "->", tokens)

vocab = ["a", "short", "slim", "woman", "wearing", "ice", "blue", "jeans",
         "and", "sunglasses", "glasses", "spectacles", "tall", "man", "red",
         "coat", "hat", "boots", "scarf", "the"]
rng = np.random.default_rng(1)
table = EmbeddingTable(dimension=8, vectors={t: rng.standard_normal(8) for t in vocab})
words = textprep.word_table(table)
print("\n== word table (distinct vectors behind the all-zero padding row 0) ==")
print("rows:", words.vectors.shape, "id of 'jeans':", words.ids["jeans"])

print("\n== description (one id per known word, at most max_len) ==")
tensor = textprep.to_tensor(tokens, words, max_len=12)
print("ids:", tensor.ids.tolist(), "words:", len(tensor.ids), "max_len: 12")
print("the network reads zeros past the stored ids; no batch is padded")

print("\n== augmentation schemes ==")
gen = stream(99, 1)
print("drop:    ", textprep.augment_drop(tokens, gen))
synonyms = {"sunglasses": ("glasses", "spectacles"), "woman": ("lady",)}
print("synonym: ", textprep.augment_synonym(tokens, synonyms, gen, replace_prob=0.9))
noisy = textprep.augment_gaussian(tensor, sigma=0.05, rng=gen)
print("gaussian: perturbed", len(tensor.ids), "columns, appended as ids", noisy.ids.tolist(),
      "shape kept:", noisy.columns().shape == tensor.columns().shape)

print("\n== train a toy identity classifier ==")
classes = ["red coat", "blue jeans", "tall man", "slim woman", "a hat",
           "the scarf", "ice boots", "blue sunglasses"]
samples = []
for label, phrase in enumerate(classes):
    for filler in ("a", "the"):
        toks = textprep.tokenize(f"{filler} person wearing {phrase}")
        samples.append((label, textprep.to_tensor(toks, words, max_len=10)))
config = textcnn.TextCnnConfig(num_classes=len(classes), embed_dim=8,
                               kernel_count=16, kernel_width=3, hidden_dim=32,
                               max_len=10, dropout=0.0)
model = textcnn.init_model(config, stream(99, 2))
solver = textcnn.SolverConfig(iterations=400, base_lr=0.05, batch_size=16)
history = textcnn.train(model, samples, solver, stream(99, 3))
tensors = [t for _, t in samples]
labels = np.array([label for label, _ in samples])
accuracy = np.mean(textcnn.predict(model, tensors) == labels)
print(f"loss {history[0]:.3f} -> {history[-1]:.4f}; train accuracy {accuracy:.2f}")
features = textcnn.extract_features(model, tensors)
print("description features:", features.shape, "(FC1 activations, one row per description)")

print("\n== detector channel ==")
# plant a kernel whose center slice is the 'sunglasses' embedding
detector_cfg = textcnn.TextCnnConfig(num_classes=2, embed_dim=8, kernel_count=12,
                                     kernel_width=5, hidden_dim=8, max_len=14,
                                     dropout=0.0)
detector = textcnn.init_model(detector_cfg, stream(99, 4))
for _, arr in detector.params():
    arr[...] = 0.0
detector.conv_w[5, :, 2] = table.vectors["sunglasses"]
# each probe is 14 faint random words with the target at a known position,
# all coded by value into one probe WordTable, the CNN's one input form
columns, truth = [], []
for position in (4, 7, 11):
    values = 0.01 * np.random.default_rng(position).standard_normal((8, 14))
    values[:, position - 1] = table.vectors["sunglasses"]
    columns.append(values.T)
    truth.append(position)
probe_vectors, probe_ids = textprep.code_rows(columns, 8)
probe_words = textprep.WordTable({}, probe_vectors)
probes = [textprep.DescriptionTensor(ids.astype(np.int32), probe_words) for ids in probe_ids]
channel, errors = textcnn.find_detector_channel(detector, probes, truth)
print(f"planted channel 5, recovered channel {channel}, localization errors {errors}")
print("(the reported position is the conv argmax plus the half-width offset, 2 for w=5)")

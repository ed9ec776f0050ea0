"""One benchmark step, run in a fresh process, optionally traced.

    python3 perfbench/invoke.py [--spans FILE] cli <xmreid arguments...>
    python3 perfbench/invoke.py [--spans FILE] embeddings CONFIG SEED DIM OUT

`cli` runs `xmreid.cli.main` on the arguments. `embeddings` writes the word
table `synth.gen_vocabulary_embeddings(config, dim=DIM)` for the synth
config in the JSON file CONFIG with its seed set to SEED; the CLI's own
`--embeddings-out` only writes the 12-d toy table. With `--spans`, every
public xmreid function is wrapped first and the spans land in FILE at exit.
The exit code is the step's.
"""

import json
import sys


def write_embeddings(config_path, seed, dim, out):
    from xmreid import dataio, synth

    with open(config_path, "r", encoding="utf-8") as handle:
        config = synth.SynthConfig(**json.load(handle))
    config.seed = int(seed)
    dataio.save_embeddings(synth.gen_vocabulary_embeddings(config, dim=int(dim)), out)
    return 0


def run(argv):
    if argv[:1] == ["cli"]:
        from xmreid import cli

        return cli.main(argv[1:])
    if argv[:1] == ["embeddings"] and len(argv) == 5:
        return write_embeddings(*argv[1:])
    print(f"usage: {__doc__}", file=sys.stderr)
    return 2


def main(argv):
    if argv[:1] != ["--spans"]:
        return run(argv)
    import tracer

    recorder = tracer.Recorder()
    recorder.install()
    try:
        return run(argv[2:])
    finally:
        recorder.dump(argv[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

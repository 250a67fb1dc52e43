"""Seeded synthetic inputs for the psda benchmark.

``write_inputs(root, workload, seed)`` writes everything the pipeline
reads -- one word2vec text file per language, the taxonomy, a CoNLL-U
corpus and the key = value config -- and returns a ``Truth`` holding what
the benchmark's checks need: every word's vector parsed back from the
text exactly as written, and every sentence with its tokens and SVO
positions.  The program sees only the files.

Vocabulary.  Words come in cross-lingual groups: one group centre per
concept, a small family and language offset, and per-word noise, so a
word sits near its translations.  Group centres sit around one of
SUPER_GROUPS well-separated super-centres, the same in every language,
so the top-level stage finds SUPER_GROUPS non-empty clusters, each
holding several languages.  Vectors are scaled like pre-trained
word vectors (norms of 3 to 4 units, printed with five decimals), so the
transport kernel ``exp(-C / 0.1)`` between sentence rows stays far from
underflow, as it does on real vectors.

Corpus.  Sentence lengths follow a log-normal shape like treebank
sentences (median 16 tokens, 4 to 48), adjusted so that every seed's
corpus holds exactly 18 tokens per sentence on average.  Subject, verb and object sit at
random distinct positions; about one sentence in twelve has no object.
About 4% of role words and 3% of other tokens are out of vocabulary, so
``missing-chain`` skips and zero rows occur; a sentence is never wholly
out of vocabulary.

Run ``python3 bench/gen.py --workload many-pairs --seed 1 --out DIR`` to
write one input set by hand.
"""

import argparse
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Two families of two languages each.
FAMILIES = {"fam_a": ("aa", "ab"), "fam_b": ("ba", "bb")}
LANGS = tuple(lang for langs in FAMILIES.values() for lang in langs)

WORKLOADS = {
    "large-vocab": {
        "words": 3000, "dim": 100, "sentences": 150, "copies": 1, "sidecar": True,
    },
    "many-pairs": {
        "words": 150, "dim": 300, "sentences": 200, "copies": 2, "sidecar": False,
    },
}

WORDS_PER_GROUP = 10
# Share of groups per part of speech; the remainder are function words.
NOUN_SHARE, VERB_SHARE = 0.4, 0.25
OTHER_TAGS = ("ADJ", "ADV", "DET", "ADP", "PRON")
MIN_LENGTH, MAX_LENGTH, MEAN_LENGTH = 4, 48, 18
NO_OBJECT_SHARE = 1 / 12
ROLE_OOV_SHARE = 0.04
TOKEN_OOV_SHARE = 0.03
# EM stops after GMM_MAX_ITER iterations.  At the default of 200 the
# single-language fits converge after 17 to 126 iterations depending on
# the seed, so cluster time would measure the seed more than the code; a
# cap below the fewest seen makes every seed run the same EM work.
GMM_MAX_ITER = 15
# Planted top-level clusters: concept group g belongs to super-group
# g % SUPER_GROUPS, and ``k.multi`` is set to the same number.  With
# ``auto`` the number of non-empty top-level clusters varied with the
# seed (1 to 4 were seen), and with one cluster the checks on candidate
# clusters and cluster separation could not fail.  The top-level stage
# clusters member-share-weighted centres, so its clusters mix
# super-groups and their sizes vary with the seed, but their number
# does not (``checks.check_cluster`` requires it).
SUPER_GROUPS = 3
SUPER_NORM, GROUP_NORM = 3.0, 1.5
# The regularizer's operating point, written into the config so the
# checks recompute the losses with the same values.
OT_EPSILON, OT_TAIL, OT_ETA, OT_TOL = 0.1, 300, 0.001, 1e-9
RHO, LAM = (0.4, 0.2, 0.4), (0.5, 0.5)
OTHER_DEPRELS = {"ADJ": "amod", "ADV": "advmod", "DET": "det", "ADP": "case", "PRON": "obl"}


@dataclass
class Sentence:
    lang: str
    tokens: list
    upos: list
    subject: int
    verb: int
    object: "int | None"
    oov: set


@dataclass
class Truth:
    dim: int
    copies: int
    sidecar: bool
    vectors: dict      # lang -> {word: float64 vector parsed from the text}
    sentences: list    # Sentence, in corpus order
    config: Path

    def word_count(self) -> int:
        return sum(len(v) for v in self.vectors.values())


def _vocabulary(rng, words: int, dim: int):
    groups = words // WORDS_PER_GROUP
    scale = 1.0 / np.sqrt(dim)
    supers = rng.normal(size=(SUPER_GROUPS, dim)) * SUPER_NORM * scale
    centres = supers[np.arange(groups) % SUPER_GROUPS] + rng.normal(size=(groups, dim)) * GROUP_NORM * scale
    fam_shift = {f: rng.normal(size=dim) * 0.5 * scale for f in FAMILIES}
    lang_shift = {lang: rng.normal(size=dim) * 0.3 * scale for lang in LANGS}
    n_noun = int(round(groups * NOUN_SHARE))
    n_verb = int(round(groups * VERB_SHARE))
    group_tag = (
        ["NOUN"] * n_noun
        + ["VERB"] * n_verb
        + [OTHER_TAGS[i % len(OTHER_TAGS)] for i in range(groups - n_noun - n_verb)]
    )

    vocab = {}
    for fam, langs in FAMILIES.items():
        for lang in langs:
            entries = {}
            for i in range(words):
                g = i % groups
                vec = centres[g] + fam_shift[fam] + lang_shift[lang]
                vec = vec + rng.normal(size=dim) * 0.6 * scale
                entries[f"{lang}.g{g:04d}.w{i // groups:02d}"] = (vec, group_tag[g])
            vocab[lang] = entries
    return vocab


def _sentence_lengths(rng, count: int) -> list:
    """Log-normal lengths, then nudged one token at a time until they sum
    to exactly MEAN_LENGTH * count, so every seed carries the same amount
    of text."""
    lengths = np.clip(np.round(rng.lognormal(np.log(16.0), 0.55, size=count)), MIN_LENGTH, MAX_LENGTH)
    lengths = lengths.astype(int)
    target = MEAN_LENGTH * count
    while lengths.sum() != target:
        step = 1 if lengths.sum() < target else -1
        k = int(rng.integers(count))
        if MIN_LENGTH <= lengths[k] + step <= MAX_LENGTH:
            lengths[k] += step
    return lengths.tolist()


def _sentences(rng, vocab, count: int):
    by_tag = {}
    for lang, entries in vocab.items():
        for word, (_, tag) in entries.items():
            kind = tag if tag in ("NOUN", "VERB") else "X"
            by_tag.setdefault((lang, kind), []).append(word)
    oov_serial = 0
    out = []
    for n in _sentence_lengths(rng, count):
        lang = LANGS[int(rng.integers(len(LANGS)))]
        has_obj = rng.random() >= NO_OBJECT_SHARE
        pos = rng.permutation(n)
        subj, verb = int(pos[0]), int(pos[1])
        obj = int(pos[2]) if has_obj else None
        tokens, upos, oov = [], [], set()
        for j in range(n):
            if j == verb:
                kind = "VERB"
            elif j in (subj, obj):
                kind = "NOUN"
            else:
                kind = "X"
            share = ROLE_OOV_SHARE if kind != "X" else TOKEN_OOV_SHARE
            if rng.random() < share:
                tokens.append(f"{lang}.oov{oov_serial:05d}")
                upos.append("NOUN" if kind == "X" else kind)
                oov.add(j)
                oov_serial += 1
                continue
            pool = by_tag[(lang, kind)]
            word = pool[int(rng.integers(len(pool)))]
            tokens.append(word)
            upos.append(vocab[lang][word][1])
        if len(oov) == n:
            # never wholly out of vocabulary: put a real verb back
            pool = by_tag[(lang, "VERB")]
            tokens[verb] = pool[int(rng.integers(len(pool)))]
            upos[verb] = "VERB"
            oov.discard(verb)
        out.append(Sentence(lang, tokens, upos, subj, verb, obj, oov))
    return out


def _conllu(sentences) -> str:
    blocks = []
    for k, s in enumerate(sentences):
        lines = [f"# sent_id = {k}", f"# lang = {s.lang}"]
        for j, (form, tag) in enumerate(zip(s.tokens, s.upos)):
            if j == s.verb:
                head, rel = 0, "root"
            elif j == s.subject:
                head, rel = s.verb + 1, "nsubj"
            elif j == s.object:
                head, rel = s.verb + 1, "obj"
            else:
                head, rel = s.verb + 1, OTHER_DEPRELS.get(tag, "dep")
            lines.append("\t".join([str(j + 1), form, form, tag, "_", "_", str(head), rel, "_", "_"]))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def write_inputs(root, workload: str, seed: int) -> Truth:
    """Write one seeded input set under ``root`` and return its truth."""
    spec = WORKLOADS[workload]
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    vocab = _vocabulary(rng, spec["words"], spec["dim"])
    sentences = _sentences(rng, vocab, spec["sentences"])

    vectors = {}
    for lang, entries in vocab.items():
        lines = [f"{len(entries)} {spec['dim']}"]
        parsed = {}
        for word, (vec, _) in entries.items():
            text = ["%.5f" % x for x in vec]
            lines.append(word + " " + " ".join(text))
            parsed[word] = np.array([float(t) for t in text])
        (root / f"vec_{lang}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        vectors[lang] = parsed

    (root / "taxonomy.txt").write_text(
        "".join(f"{fam}: {','.join(langs)}\n" for fam, langs in FAMILIES.items()),
        encoding="utf-8",
    )
    (root / "corpus.conllu").write_text(_conllu(sentences), encoding="utf-8")
    config = root / "psda.cfg"
    config.write_text(
        "taxonomy = taxonomy.txt\n"
        "corpus = corpus.conllu\n"
        + "".join(f"embeddings.{lang} = vec_{lang}.txt\n" for lang in LANGS)
        + f"seed = {seed}\n"
        f"copies = {spec['copies']}\n"
        f"gmm.max_iter = {GMM_MAX_ITER}\n"
        f"k.multi = {SUPER_GROUPS}\n"
        f"ot.epsilon = {OT_EPSILON}\n"
        f"ot.tail = {OT_TAIL}\n"
        f"ot.eta = {OT_ETA}\n"
        f"ot.tol = {OT_TOL}\n"
        f"rho = {','.join(map(str, RHO))}\n"
        f"lam = {','.join(map(str, LAM))}\n",
        encoding="utf-8",
    )
    return Truth(
        dim=spec["dim"],
        copies=spec["copies"],
        sidecar=spec["sidecar"],
        vectors=vectors,
        sentences=sentences,
        config=config,
    )


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    a = ap.parse_args()
    t = write_inputs(a.out, a.workload, a.seed)
    print(f"{t.word_count()} words, {len(t.sentences)} sentences in {a.out}")

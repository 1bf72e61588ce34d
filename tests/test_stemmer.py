"""English Porter-family stemmer.

The expected outputs below were frozen from a differential run against a
widely used Porter2/Snowball implementation (443k-word fuzz with zero
mismatches); they serve as the behavioral oracle for this from-scratch
version.
"""

import hashlib
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valnov import stemming
from valnov.encoder import tokenize
from valnov.stemming import _STEP1A, _STEP1B, _STEP2, _STEP3, _STEP4, _suffix, stem
from valnov.synthetic import make_profile_splits

# (input, expected) covering every rule step, region edge cases, and the
# special-word list.
ORACLE_PAIRS = [
    # step 1a: sses/ied/ies/us/ss/s
    ("caresses", "caress"),
    ("ponies", "poni"),
    ("ties", "tie"),
    ("cries", "cri"),
    ("gaps", "gap"),
    ("gas", "gas"),
    ("this", "this"),
    ("abyss", "abyss"),
    ("skis", "ski"),
    # step 1b: eed/eedly need r1; ed/ing family with at/bl/iz and doubles
    ("agreed", "agre"),
    ("feed", "feed"),
    ("plastered", "plaster"),
    ("bled", "bled"),
    ("motoring", "motor"),
    ("sing", "sing"),
    ("conflated", "conflat"),
    ("troubled", "troubl"),
    ("sized", "size"),
    ("hopping", "hop"),
    ("tanned", "tan"),
    ("falling", "fall"),
    ("hissing", "hiss"),
    ("fizzed", "fizz"),
    ("failing", "fail"),
    ("filing", "file"),
    ("hoped", "hope"),
    ("luxuriated", "luxuri"),
    ("controlling", "control"),
    ("obeying", "obey"),
    ("canyoning", "canyon"),
    # step 1c: y -> i after a consonant, not at position 0/1
    ("happy", "happi"),
    ("sky", "sky"),
    ("cry", "cri"),
    ("by", "by"),
    ("say", "say"),
    ("enjoy", "enjoy"),
    # step 2
    ("relational", "relat"),
    ("conditional", "condit"),
    ("rational", "ration"),
    ("valenci", "valenc"),
    ("hesitancy", "hesit"),
    ("digitizer", "digit"),
    ("communism", "communism"),
    ("activate", "activ"),
    ("demonstrable", "demonstr"),
    ("vietnamization", "vietnam"),
    ("predication", "predic"),
    ("operator", "oper"),
    ("feudalism", "feudal"),
    ("decisiveness", "decis"),
    ("hopefulness", "hope"),
    ("callousness", "callous"),
    ("formality", "formal"),
    ("sensitivity", "sensit"),
    ("sensibility", "sensibl"),
    ("joyfully", "joy"),
    ("gratefully", "grate"),
    ("badly", "bad"),
    ("openly", "open"),
    # first matching suffix wins even when its region check fails:
    # "ently" matches inside "fluently" but r1 is too short for deletion,
    # and no shorter suffix is retried
    ("fluently", "fluentli"),
    # step 3
    ("triplicate", "triplic"),
    ("formative", "format"),
    ("formalize", "formal"),
    ("electricity", "electr"),
    ("electrical", "electr"),
    ("hopeful", "hope"),
    ("goodness", "good"),
    ("generalization", "general"),
    # step 4
    ("revival", "reviv"),
    ("allowance", "allow"),
    ("inference", "infer"),
    ("airliner", "airlin"),
    ("gyroscopic", "gyroscop"),
    ("adjustable", "adjust"),
    ("defensible", "defens"),
    ("irritant", "irrit"),
    ("replacement", "replac"),
    ("adjustment", "adjust"),
    ("dependent", "depend"),
    ("adoption", "adopt"),
    ("communication", "communic"),
    ("activism", "activ"),
    ("angularity", "angular"),
    ("homologous", "homolog"),
    ("effective", "effect"),
    ("bowdlerize", "bowdler"),
    # step 5: final e / ll
    ("probate", "probat"),
    ("rate", "rate"),
    ("cease", "ceas"),
    ("controll", "control"),
    ("roll", "roll"),
    # y-marking: y after a vowel is a consonant for region purposes
    ("youth", "youth"),
    ("boyishness", "boyish"),
    ("yearly", "year"),
    # prefix regions: gener/commun/arsen get hand-set r1
    ("generate", "generat"),
    ("generously", "generous"),
    ("communes", "commune"),
    ("communing", "commune"),
    ("arsenic", "arsenic"),
    ("arsenals", "arsenal"),
    # special words, including inflected forms
    ("skies", "sky"),
    ("dying", "die"),
    ("lying", "lie"),
    ("idly", "idl"),
    ("gently", "gentl"),
    ("singly", "singl"),
    ("news", "news"),
    ("proceeding", "proceed"),
    ("exceeds", "exceed"),
    ("succeeded", "succeed"),
    ("innings", "inning"),
    ("earrings", "earring"),
    # short-word guard
    ("tv", "tv"),
    ("a", "a"),
    ("be", "be"),
    ("on", "on"),
]


@pytest.mark.parametrize("word,expected", ORACLE_PAIRS, ids=[w for w, _ in ORACLE_PAIRS])
def test_oracle_pair(word, expected):
    assert stem(word) == expected


def test_published_reference_examples():
    assert stem("running") == "run"
    assert stem("caresses") == "caress"
    assert stem("tv") == "tv"


@pytest.mark.parametrize("token", ["123", "x86", "don't", "co-op", "", "3.5"])
def test_non_alphabetic_tokens_pass_through(token):
    assert stem(token) == token


def test_uppercase_is_lowercased():
    assert stem("Running") == "run"
    assert stem("CARESSES") == "caress"


@given(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=15))
def test_deterministic_and_lowercase(word):
    out = stem(word)
    assert out == stem(word)
    assert out == out.lower()
    assert len(out) <= len(word)


@given(st.text(alphabet=string.ascii_letters, min_size=1, max_size=12))
def test_case_insensitive(word):
    assert stem(word) == stem(word.lower())


STEP_TABLES = [_STEP1A, _STEP1B, _STEP2, _STEP3, _STEP4]
ALL_SUFFIXES = sorted(set(_STEP1A + _STEP1B + _STEP2 + _STEP3 + _STEP4))


@given(
    st.sampled_from(STEP_TABLES),
    st.text(alphabet=string.ascii_lowercase + "Y", max_size=8),
    st.sampled_from(["", *ALL_SUFFIXES]),
)
def test_suffix_lookup_finds_the_first_match_of_a_full_scan(table, base, suffix):
    # the lookup tries only the suffixes ending in the word's last letter;
    # any suffix of any step, or none, is appended to a random stem
    word = base + suffix
    assert _suffix(word, table) == next((s for s in table if word.endswith(s)), None)


def _suffix_word_list() -> list[str]:
    """Seeded stems followed by every suffix the rule steps test, with
    doubled-consonant and ``y`` variants, plus every profile-corpus token."""
    rng = np.random.default_rng(2001)
    letters = np.array(list(string.ascii_lowercase))
    bases = ["".join(rng.choice(letters, size=rng.integers(1, 7))) for _ in range(120)]
    bases += ["gener", "commun", "arsen", "y", "ay", "sky", "proceed", "hop", "bl", "at"]
    suffixes = sorted(set(_STEP1A + _STEP1B + _STEP2 + _STEP3 + _STEP4))
    words = []
    for base in bases:
        for suffix in ("", *suffixes):
            words += [
                base + suffix,
                base + base[-1] + suffix,
                base + "y" + suffix,
                "y" + base + suffix,
                base + "ey" + suffix,
            ]
    splits = make_profile_splits(seed=0)
    for instances in splits.values():
        for inst in instances:
            words += tokenize(f"{inst.premise} {inst.conclusion}")
    return words


# sha256 of the stems of _suffix_word_list, one per line, recorded before
# the suffix-dispatched rule steps
GOLDEN_STEMS_SHA256 = "7ef4fc1cea10fd662db12e5ca5dfce2c6c4a59c0f50bb9ecf332a83c1deca34c"


def test_stems_of_suffix_word_list_are_unchanged():
    words = _suffix_word_list()
    assert len(words) > 40_000
    text = "\n".join(stem(word) for word in words)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_STEMS_SHA256


# the endings of step 1c and step 5, and their near misses
NEAR_RULE_ENDINGS = ["e", "l", "ll", "y", *(vowel + "y" for vowel in "aeiou")]


@st.composite
def mixed_case_words(draw):
    """A random stem, or one rich in vowels so that its regions are long,
    followed by no ending, a step suffix or an ending of steps 1c and 5,
    with each letter upper-cased at random."""
    word = draw(
        st.text(alphabet=string.ascii_lowercase, max_size=8)
        | st.text(alphabet="aeioulnrst", min_size=3, max_size=8)
    )
    word += draw(st.sampled_from(["", *ALL_SUFFIXES]) | st.sampled_from(NEAR_RULE_ENDINGS))
    upper = draw(st.lists(st.booleans(), min_size=len(word), max_size=len(word)))
    return "".join(ch.upper() if up else ch for ch, up in zip(word, upper))


@settings(max_examples=1000)
@given(mixed_case_words())
def test_no_rule_ending_shortcut_matches_the_full_pipeline(word):
    with pytest.MonkeyPatch.context() as patch:
        # every word ends in "", so every word runs through all the steps
        patch.setattr(stemming, "_RULE_ENDINGS", ("",))
        full = stem(word)
    assert stem(word) == full


# steps 2 and 3 as the Porter2 definition states them: each suffix and
# what the word's ending becomes when the rule fires
PORTER2_RULES = {
    "step 2": {
        "tional": "tion",
        "enci": "ence",
        "anci": "ance",
        "abli": "able",
        "entli": "ent",
        "izer": "ize",
        "ization": "ize",
        "ational": "ate",
        "ation": "ate",
        "ator": "ate",
        "alism": "al",
        "aliti": "al",
        "alli": "al",
        "fulness": "ful",
        "ousli": "ous",
        "ousness": "ous",
        "iveness": "ive",
        "iviti": "ive",
        "biliti": "ble",
        "bli": "ble",
        "ogi": "og",
        "fulli": "ful",
        "lessli": "less",
        "li": "",
    },
    "step 3": {
        "tional": "tion",
        "ational": "ate",
        "alize": "al",
        "icate": "ic",
        "iciti": "ic",
        "ical": "ic",
        "ful": "",
        "ness": "",
        "ative": "",
    },
}
SWAP_TABLES = {"step 2": stemming._STEP2_SWAPS, "step 3": stemming._STEP3_SWAPS}


@pytest.mark.parametrize(
    "step,suffix,result",
    [(step, s, r) for step, rules in PORTER2_RULES.items() for s, r in rules.items()],
    ids=[f"{step}-{s}" for step, rules in PORTER2_RULES.items() for s in rules],
)
def test_swap_row_gives_the_porter2_rewrite(step, suffix, result):
    cut, replacement = SWAP_TABLES[step][suffix][:2]
    assert 0 < cut <= len(suffix)
    assert suffix[:-cut] + replacement == result


@pytest.mark.parametrize("step", SWAP_TABLES)
def test_swap_tables_hold_the_rule_list_longest_suffix_first(step):
    table = SWAP_TABLES[step]
    assert sorted(table) == sorted(PORTER2_RULES[step])
    lengths = [len(suffix) for suffix in table]
    assert lengths == sorted(lengths, reverse=True)


# the three rows that hold only in context, with a word on each side
@pytest.mark.parametrize(
    "word,expected",
    [
        ("bravely", "brave"),  # li after the li-ending e
        ("happily", "happili"),  # li after i, not an li-ending
        ("geology", "geolog"),  # ogi after l
        ("pedagogy", "pedagogi"),  # ogi after g
        ("demonstrative", "demonstr"),  # ative in R2
        ("talkative", "talkat"),  # ative in R1 only; step 4 then takes ive
    ],
)
def test_context_rows_fire_only_in_their_context(word, expected):
    assert stem(word) == expected

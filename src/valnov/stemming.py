"""English Porter2 (Snowball) stemmer.

Pure-Python implementation used by the sparse lexical baseline.  Tokens
that are not purely alphabetic pass through unchanged.  The regions R1
and R2 are carried through every rewrite as suffix strings of the
current word, so region membership tests stay cheap and a rewrite that
eats into a region shrinks it as it shrinks the word.  Snowball's fixed
start positions would give other stems: a region that a rewrite eats
past collapses here to ``_swap``'s fallback, where a fixed start still
covers part of the replacement (``airization`` stems to ``airize`` here,
to ``airiz`` there).  Both regions come from one scan,
``_after_vowel_consonant``: R1 is what follows the first non-vowel after
a vowel in the word (or a fixed prefix such as ``gener``), and R2 is the
same scan of R1.

``_suffix`` is the one suffix lookup of steps 1a to 4.  It returns None
at once when the word ends in none of a step's suffixes, and otherwise
tries only the suffixes that end in the word's last letter, kept in the
step table's order.  Every suffix the word ends in is among them, so the
first match is the one a scan of the whole table finds.  Every rewrite
goes through ``_swap``; deleting a suffix is swapping it for "".  Steps
2 and 3 are one table each, longest suffix first, from a suffix to the
rest of its ``_swap`` arguments: characters replaced, replacement, and
R2's fallback where it is not "".  Only li (after a valid li-ending),
ogi (after l) and ative (in R2) need a context test.

``stem`` returns the lower-cased word at once when it ends in none of
``_RULE_ENDINGS``: the suffixes of steps 1a to 4, ``y`` and ``e`` and
``ll``.  No step can fire on such a word.  Steps 1a, 1b, 2, 3 and 4
each need one of their suffixes, step 1c a final ``y`` and step 5 a
final ``e`` or ``ll``, and marking a consonant ``y`` as ``Y`` can only
take endings away, since every suffix that holds a ``y`` ends in one.
So the full pipeline would give back the lower-cased word unchanged.
"""

import re

_VOWELS = "aeiouy"
_DOUBLES = ("bb", "dd", "ff", "gg", "mm", "nn", "pp", "rr", "tt")
_LI_ENDINGS = "cdeghkmnrt"

_STEP1A = ("sses", "ied", "ies", "us", "ss", "s")
_STEP1B = ("eedly", "ingly", "edly", "eed", "ing", "ed")
_STEP2_SWAPS = {
    "ization": (7, "ize"),
    "ational": (7, "ate", "e"),
    "fulness": (4, ""),
    "ousness": (7, "ous"),
    "iveness": (7, "ive", "e"),
    "tional": (2, ""),
    "biliti": (6, "ble"),
    "lessli": (2, ""),
    "entli": (2, ""),
    "ation": (5, "ate", "e"),
    "alism": (5, "al"),
    "aliti": (5, "al"),
    "ousli": (5, "ous"),
    "iviti": (5, "ive", "e"),
    "fulli": (2, ""),
    "enci": (1, "e"),
    "anci": (1, "e"),
    "abli": (1, "e"),
    "izer": (4, "ize"),
    "ator": (4, "ate", "e"),
    "alli": (4, "al"),
    "bli": (3, "ble"),
    "ogi": (1, ""),
    "li": (2, ""),
}
_STEP3_SWAPS = {
    "ational": (7, "ate"),
    "tional": (2, ""),
    "alize": (3, ""),
    "icate": (5, "ic"),
    "iciti": (5, "ic"),
    "ative": (5, ""),
    "ical": (4, "ic"),
    "ness": (4, ""),
    "ful": (3, ""),
}
_STEP2 = tuple(_STEP2_SWAPS)
_STEP3 = tuple(_STEP3_SWAPS)
_STEP4 = (
    "ement",
    "ance",
    "ence",
    "able",
    "ible",
    "ment",
    "ant",
    "ent",
    "ism",
    "ate",
    "iti",
    "ous",
    "ive",
    "ize",
    "ion",
    "al",
    "er",
    "ic",
)


def _by_last_letter(suffixes: tuple[str, ...]) -> dict[str, tuple[str, ...]]:
    """The suffixes grouped by their last letter, each group in table order."""
    table: dict[str, tuple[str, ...]] = {}
    for suffix in suffixes:
        table[suffix[-1]] = table.get(suffix[-1], ()) + (suffix,)
    return table


_BY_LAST = {
    table: _by_last_letter(table) for table in (_STEP1A, _STEP1B, _STEP2, _STEP3, _STEP4)
}


def _shortest_endings(endings: tuple[str, ...]) -> tuple[str, ...]:
    """The endings that end in no other one: a word ends in one of
    ``endings`` exactly when it ends in one of these."""
    return tuple(
        sorted(e for e in endings if not any(f != e and e.endswith(f) for f in endings))
    )


# every ending a rule tests: the suffixes of steps 1a to 4, the y of
# step 1c, and the e and ll of step 5
_RULE_ENDINGS = _shortest_endings(
    _STEP1A + _STEP1B + _STEP2 + _STEP3 + _STEP4 + ("y", "e", "ll")
)

# irregular forms and words that must not be touched at all
_SPECIAL = {
    "skis": "ski",
    "skies": "sky",
    "dying": "die",
    "lying": "lie",
    "tying": "tie",
    "idly": "idl",
    "gently": "gentl",
    "ugly": "ugli",
    "early": "earli",
    "only": "onli",
    "singly": "singl",
    "sky": "sky",
    "news": "news",
    "howe": "howe",
    "atlas": "atlas",
    "cosmos": "cosmos",
    "bias": "bias",
    "andes": "andes",
    "inning": "inning",
    "innings": "inning",
    "outing": "outing",
    "outings": "outing",
    "canning": "canning",
    "cannings": "canning",
    "herring": "herring",
    "herrings": "herring",
    "earring": "earring",
    "earrings": "earring",
    "proceed": "proceed",
    "proceeds": "proceed",
    "proceeded": "proceed",
    "proceeding": "proceed",
    "exceed": "exceed",
    "exceeds": "exceed",
    "exceeded": "exceed",
    "exceeding": "exceed",
    "succeed": "succeed",
    "succeeds": "succeed",
    "succeeded": "succeed",
    "succeeding": "succeed",
}


def _mark_consonant_y(word: str) -> str:
    """Uppercase each y that acts as a consonant (word-initial or after a vowel)."""
    if "y" not in word:
        return word
    chars = list(word)
    if chars[0] == "y":
        chars[0] = "Y"
    for i in range(1, len(chars)):
        if chars[i] == "y" and chars[i - 1] in _VOWELS:
            chars[i] = "Y"
    return "".join(chars)


_VOWEL_CONSONANT = re.compile("[aeiouy][^aeiouy]").search


def _after_vowel_consonant(text: str) -> str:
    """What follows the first non-vowel that comes after a vowel, or ""."""
    found = _VOWEL_CONSONANT(text)
    return text[found.end() :] if found else ""


def _regions(word: str) -> tuple[str, str]:
    """R1 and R2 as suffix strings of ``word``."""
    if word.startswith(("gener", "commun", "arsen")):
        r1 = word[6:] if word[0] == "c" else word[5:]
    else:
        r1 = _after_vowel_consonant(word)
    return r1, _after_vowel_consonant(r1)


def _suffix(word: str, table: tuple[str, ...]) -> str | None:
    """The first suffix of ``table``, in table order, that ``word`` ends with, or None."""
    if word.endswith(table):
        for suffix in _BY_LAST[table][word[-1]]:
            if word.endswith(suffix):
                return suffix
    return None


def _swap(
    word: str, r1: str, r2: str, n: int, repl: str, r2_fallback: str = ""
) -> tuple[str, str, str]:
    """Replace the last ``n`` (> 0) characters with ``repl``.

    A region shorter than the replaced span collapses to its fallback
    instead of keeping a stray fragment.
    """
    word = word[:-n] + repl
    r1 = r1[:-n] + repl if len(r1) >= n else ""
    r2 = r2[:-n] + repl if len(r2) >= n else r2_fallback
    return word, r1, r2


def _has_vowel(text: str) -> bool:
    return any(ch in _VOWELS for ch in text)


def _ends_short_syllable(word: str) -> bool:
    if len(word) == 2:
        return word[0] in _VOWELS and word[1] not in _VOWELS
    return (
        len(word) >= 3
        and word[-1] not in _VOWELS
        and word[-1] not in "wxY"
        and word[-2] in _VOWELS
        and word[-3] not in _VOWELS
    )


def stem(token: str) -> str:
    """Stem one token; non-alphabetic tokens come back unchanged."""
    if not token.isalpha():
        return token
    word = token.lower()
    if len(word) <= 2:
        return word
    if word in _SPECIAL:
        return _SPECIAL[word]
    if not word.endswith(_RULE_ENDINGS):
        return word

    word = _mark_consonant_y(word)
    r1, r2 = _regions(word)

    # step 1a: plural endings
    suffix = _suffix(word, _STEP1A)
    if suffix == "sses":
        word, r1, r2 = _swap(word, r1, r2, 2, "")
    elif suffix in ("ied", "ies"):
        word, r1, r2 = _swap(word, r1, r2, 2 if len(word) > 4 else 1, "")
    elif suffix == "s" and _has_vowel(word[:-2]):
        word, r1, r2 = _swap(word, r1, r2, 1, "")

    # step 1b: -eed and the -ed/-ing family
    suffix = _suffix(word, _STEP1B)
    if suffix in ("eed", "eedly"):
        if r1.endswith(suffix):
            word, r1, r2 = _swap(word, r1, r2, len(suffix), "ee")
    elif suffix is not None and _has_vowel(word[: -len(suffix)]):
        word, r1, r2 = _swap(word, r1, r2, len(suffix), "")
        if word.endswith(("at", "bl", "iz")):
            word += "e"
            r1 += "e"
            if len(word) > 5 or len(r1) >= 3:
                r2 += "e"
        elif word.endswith(_DOUBLES):
            word, r1, r2 = _swap(word, r1, r2, 1, "")
        elif r1 == "" and _ends_short_syllable(word):
            word += "e"

    # step 1c: y after a consonant becomes i
    if len(word) > 2 and word[-1] in "yY" and word[-2] not in _VOWELS:
        word, r1, r2 = _swap(word, r1, r2, 1, "i")

    # step 2: derivational suffixes in R1
    suffix = _suffix(word, _STEP2)
    if suffix is not None and r1.endswith(suffix):
        if (suffix != "li" or word[-3] in _LI_ENDINGS) and (suffix != "ogi" or word[-4] == "l"):
            word, r1, r2 = _swap(word, r1, r2, *_STEP2_SWAPS[suffix])

    # step 3: more derivational suffixes in R1
    suffix = _suffix(word, _STEP3)
    if suffix is not None and r1.endswith(suffix) and (suffix != "ative" or r2.endswith(suffix)):
        word, r1, r2 = _swap(word, r1, r2, *_STEP3_SWAPS[suffix])

    # step 4: suffixes deleted from R2
    suffix = _suffix(word, _STEP4)
    if suffix is not None and r2.endswith(suffix) and (suffix != "ion" or word[-4] in "st"):
        word, r1, r2 = _swap(word, r1, r2, len(suffix), "")

    # step 5: a final e, or the second l of ll
    if (r2.endswith("l") and word[-2] == "l") or r2.endswith("e"):
        word = word[:-1]
    elif r1.endswith("e") and len(word) >= 4 and (
        # keep the e after a short syllable ("hope" under step 1b stays "hope")
        word[-2] in _VOWELS
        or word[-2] in "wxY"
        or word[-3] not in _VOWELS
        or word[-4] in _VOWELS
    ):
        word = word[:-1]

    return word.replace("Y", "y")

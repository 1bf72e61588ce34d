"""English Porter2 (Snowball) stemmer.

Pure-Python implementation used by the sparse lexical baseline.  Tokens
that are not purely alphabetic pass through unchanged.  The regions R1
and R2 are carried through every rewrite as suffix strings of the
current word, so region membership tests stay cheap and replacements
that eat into a region shrink it the same way the rewrite shrinks the
word.

Each suffix step returns at once when the word ends in none of its
suffixes, and otherwise tries only the suffixes that end in the word's
last letter, kept in the step table's order. Every suffix the word ends
in is among them, so the first match is the one a scan of the whole
table finds.
"""

_VOWELS = "aeiouy"
_DOUBLES = ("bb", "dd", "ff", "gg", "mm", "nn", "pp", "rr", "tt")
_LI_ENDINGS = "cdeghkmnrt"

_STEP1A = ("sses", "ied", "ies", "us", "ss", "s")
_STEP1B = ("eedly", "ingly", "edly", "eed", "ing", "ed")
_STEP2 = (
    "ization",
    "ational",
    "fulness",
    "ousness",
    "iveness",
    "tional",
    "biliti",
    "lessli",
    "entli",
    "ation",
    "alism",
    "aliti",
    "ousli",
    "iviti",
    "fulli",
    "enci",
    "anci",
    "abli",
    "izer",
    "ator",
    "alli",
    "bli",
    "ogi",
    "li",
)
_STEP3 = (
    "ational",
    "tional",
    "alize",
    "icate",
    "iciti",
    "ative",
    "ical",
    "ness",
    "ful",
)
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


_STEP1A_BY_LAST = _by_last_letter(_STEP1A)
_STEP1B_BY_LAST = _by_last_letter(_STEP1B)
_STEP2_BY_LAST = _by_last_letter(_STEP2)
_STEP3_BY_LAST = _by_last_letter(_STEP3)
_STEP4_BY_LAST = _by_last_letter(_STEP4)

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


def _regions(word: str) -> tuple[str, str]:
    """R1 and R2 as suffix strings of ``word``."""
    if word.startswith(("gener", "commun", "arsen")):
        r1 = word[6:] if word.startswith("commun") else word[5:]
        r2 = ""
        for i in range(1, len(r1)):
            if r1[i] not in _VOWELS and r1[i - 1] in _VOWELS:
                r2 = r1[i + 1 :]
                break
        return r1, r2
    r1 = ""
    r2 = ""
    for i in range(1, len(word)):
        if word[i] not in _VOWELS and word[i - 1] in _VOWELS:
            r1 = word[i + 1 :]
            break
    for i in range(1, len(r1)):
        if r1[i] not in _VOWELS and r1[i - 1] in _VOWELS:
            r2 = r1[i + 1 :]
            break
    return r1, r2


def _chop(word: str, r1: str, r2: str, n: int) -> tuple[str, str, str]:
    """Drop the last ``n`` characters from the word and both regions."""
    return word[:-n], r1[:-n], r2[:-n]


def _swap(
    word: str, r1: str, r2: str, n: int, repl: str, r2_fallback: str = ""
) -> tuple[str, str, str]:
    """Replace the last ``n`` characters with ``repl``.

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


def _step1a(word: str, r1: str, r2: str) -> tuple[str, str, str]:
    if not word.endswith(_STEP1A):
        return word, r1, r2
    for suffix in _STEP1A_BY_LAST[word[-1]]:
        if not word.endswith(suffix):
            continue
        if suffix == "sses":
            word, r1, r2 = _chop(word, r1, r2, 2)
        elif suffix in ("ied", "ies"):
            n = 2 if len(word) - 3 > 1 else 1
            word, r1, r2 = _chop(word, r1, r2, n)
        elif suffix == "s" and _has_vowel(word[:-2]):
            word, r1, r2 = _chop(word, r1, r2, 1)
        break
    return word, r1, r2


def _step1b(word: str, r1: str, r2: str) -> tuple[str, str, str]:
    if not word.endswith(_STEP1B):
        return word, r1, r2
    for suffix in _STEP1B_BY_LAST[word[-1]]:
        if not word.endswith(suffix):
            continue
        if suffix in ("eed", "eedly"):
            if r1.endswith(suffix):
                word, r1, r2 = _swap(word, r1, r2, len(suffix), "ee")
        elif _has_vowel(word[: -len(suffix)]):
            word, r1, r2 = _chop(word, r1, r2, len(suffix))
            if word.endswith(("at", "bl", "iz")):
                word += "e"
                r1 += "e"
                if len(word) > 5 or len(r1) >= 3:
                    r2 += "e"
            elif word.endswith(_DOUBLES):
                word, r1, r2 = _chop(word, r1, r2, 1)
            elif r1 == "" and _ends_short_syllable(word):
                word += "e"
        break
    return word, r1, r2


def _step1c(word: str, r1: str, r2: str) -> tuple[str, str, str]:
    if len(word) > 2 and word[-1] in "yY" and word[-2] not in _VOWELS:
        word, r1, r2 = _swap(word, r1, r2, 1, "i")
    return word, r1, r2


def _step2(word: str, r1: str, r2: str) -> tuple[str, str, str]:
    if not word.endswith(_STEP2):
        return word, r1, r2
    for suffix in _STEP2_BY_LAST[word[-1]]:
        if not word.endswith(suffix):
            continue
        if r1.endswith(suffix):
            if suffix == "tional":
                word, r1, r2 = _chop(word, r1, r2, 2)
            elif suffix in ("enci", "anci", "abli"):
                word, r1, r2 = _swap(word, r1, r2, 1, "e")
            elif suffix == "entli":
                word, r1, r2 = _chop(word, r1, r2, 2)
            elif suffix in ("izer", "ization"):
                word, r1, r2 = _swap(word, r1, r2, len(suffix), "ize")
            elif suffix in ("ational", "ation", "ator"):
                word, r1, r2 = _swap(word, r1, r2, len(suffix), "ate", "e")
            elif suffix in ("alism", "aliti", "alli"):
                word, r1, r2 = _swap(word, r1, r2, len(suffix), "al")
            elif suffix == "fulness":
                word, r1, r2 = _chop(word, r1, r2, 4)
            elif suffix in ("ousli", "ousness"):
                word, r1, r2 = _swap(word, r1, r2, len(suffix), "ous")
            elif suffix in ("iveness", "iviti"):
                word, r1, r2 = _swap(word, r1, r2, len(suffix), "ive", "e")
            elif suffix in ("biliti", "bli"):
                word, r1, r2 = _swap(word, r1, r2, len(suffix), "ble")
            elif suffix == "ogi" and word[-4] == "l":
                word, r1, r2 = _chop(word, r1, r2, 1)
            elif suffix in ("fulli", "lessli"):
                word, r1, r2 = _chop(word, r1, r2, 2)
            elif suffix == "li" and word[-3] in _LI_ENDINGS:
                word, r1, r2 = _chop(word, r1, r2, 2)
        break
    return word, r1, r2


def _step3(word: str, r1: str, r2: str) -> tuple[str, str, str]:
    if not word.endswith(_STEP3):
        return word, r1, r2
    for suffix in _STEP3_BY_LAST[word[-1]]:
        if not word.endswith(suffix):
            continue
        if r1.endswith(suffix):
            if suffix == "tional":
                word, r1, r2 = _chop(word, r1, r2, 2)
            elif suffix == "ational":
                word, r1, r2 = _swap(word, r1, r2, len(suffix), "ate")
            elif suffix == "alize":
                word, r1, r2 = _chop(word, r1, r2, 3)
            elif suffix in ("icate", "iciti", "ical"):
                word, r1, r2 = _swap(word, r1, r2, len(suffix), "ic")
            elif suffix in ("ful", "ness"):
                word, r1, r2 = _chop(word, r1, r2, len(suffix))
            elif suffix == "ative" and r2.endswith(suffix):
                word, r1, r2 = _chop(word, r1, r2, 5)
        break
    return word, r1, r2


def _step4(word: str, r1: str, r2: str) -> tuple[str, str, str]:
    if not word.endswith(_STEP4):
        return word, r1, r2
    for suffix in _STEP4_BY_LAST[word[-1]]:
        if not word.endswith(suffix):
            continue
        if r2.endswith(suffix):
            if suffix == "ion":
                if word[-4] in "st":
                    word, r1, r2 = _chop(word, r1, r2, 3)
            else:
                word, r1, r2 = _chop(word, r1, r2, len(suffix))
        break
    return word, r1, r2


def _step5(word: str, r1: str, r2: str) -> str:
    if r2.endswith("l") and word[-2] == "l":
        return word[:-1]
    if r2.endswith("e"):
        return word[:-1]
    if r1.endswith("e"):
        # keep the e after a short syllable ("hope" under step 1b stays "hope")
        if len(word) >= 4 and (
            word[-2] in _VOWELS
            or word[-2] in "wxY"
            or word[-3] not in _VOWELS
            or word[-4] in _VOWELS
        ):
            return word[:-1]
    return word


def stem(token: str) -> str:
    """Stem one token; non-alphabetic tokens come back unchanged."""
    if not token.isalpha():
        return token
    word = token.lower()
    if len(word) <= 2:
        return word
    if word in _SPECIAL:
        return _SPECIAL[word]

    word = _mark_consonant_y(word)
    r1, r2 = _regions(word)

    word, r1, r2 = _step1a(word, r1, r2)
    word, r1, r2 = _step1b(word, r1, r2)
    word, r1, r2 = _step1c(word, r1, r2)
    word, r1, r2 = _step2(word, r1, r2)
    word, r1, r2 = _step3(word, r1, r2)
    word, r1, r2 = _step4(word, r1, r2)
    word = _step5(word, r1, r2)

    return word.replace("Y", "y")

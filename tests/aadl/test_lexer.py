"""Tests of the AADL lexer."""

import pytest

from repro.aadl.errors import AadlSyntaxError
from repro.aadl.lexer import Token, TokenKind, tokenize


def kinds(text):
    return [t.kind for t in tokenize(text) if t.kind is not TokenKind.END_OF_FILE]


def texts(text):
    return [t.text for t in tokenize(text) if t.kind is not TokenKind.END_OF_FILE]


class TestBasicTokens:
    def test_identifiers_and_punctuation(self):
        assert texts("thread thProducer ;") == ["thread", "thProducer", ";"]

    def test_numbers(self):
        tokens = tokenize("4 4.5 1e3")
        assert tokens[0].kind is TokenKind.INTEGER
        assert tokens[1].kind is TokenKind.REAL
        assert tokens[2].kind is TokenKind.REAL

    def test_number_followed_by_range_operator(self):
        assert texts("0 .. 1") == ["0", "..", "1"]
        assert texts("0..1") == ["0", "..", "1"]

    def test_string_literal(self):
        tokens = tokenize('"hello world"')
        assert tokens[0].kind is TokenKind.STRING
        assert tokens[0].text == "hello world"

    def test_unterminated_string_raises(self):
        with pytest.raises(AadlSyntaxError):
            tokenize('"unterminated')

    def test_unexpected_character_raises(self):
        with pytest.raises(AadlSyntaxError):
            tokenize("§")

    def test_eof_token_always_present(self):
        assert tokenize("")[-1].kind is TokenKind.END_OF_FILE


class TestMultiCharPunctuation:
    def test_arrow_and_association(self):
        assert texts("a => b -> c +=> d") == ["a", "=>", "b", "->", "c", "+=>", "d"]

    def test_double_colon(self):
        assert texts("SEI::Period") == ["SEI", "::", "Period"]

    def test_mode_transition_brackets(self):
        assert texts("idle -[ start ]-> running") == ["idle", "-[", "start", "]->", "running"]

    def test_bidirectional_connection(self):
        assert "<->" in texts("a <-> b")


class TestCommentsAndLocations:
    def test_line_comments_skipped(self):
        assert texts("thread -- comment here\n th1") == ["thread", "th1"]

    def test_locations_track_lines_and_columns(self):
        tokens = tokenize("a\n  b")
        assert tokens[0].location.line == 1
        assert tokens[1].location.line == 2
        assert tokens[1].location.column == 3

    def test_keyword_helpers_case_insensitive(self):
        token = tokenize("THREAD")[0]
        assert token.is_keyword("thread")
        assert not token.is_keyword("process")

    def test_is_punct_helper(self):
        token = tokenize(";")[0]
        assert token.is_punct(";")
        assert not token.is_punct(":")


class TestKeywordMatching:
    def test_keywords_match_in_any_case(self):
        token = tokenize("PaCkAgE")[0]
        assert token.is_keyword("package")
        assert token.is_keyword("system", "package")
        assert not token.is_keyword("system")
        assert token.lowered == "package"

    def test_only_identifiers_are_keywords(self):
        assert not tokenize('"package"')[0].is_keyword("package")
        assert not tokenize("42")[0].is_keyword("42")

    def test_catalog_identifiers_answer_their_own_spelling(self):
        from repro.aadl.printer import render_model
        from repro.casestudies import catalog_names, load_case_study

        for name in catalog_names():
            for token in tokenize(render_model(load_case_study(name).load_model())):
                if token.kind is TokenKind.IDENTIFIER:
                    assert token.is_keyword("", token.text.lower()), (name, token)
                    assert not token.is_keyword(token.text.lower() + "_"), (name, token)

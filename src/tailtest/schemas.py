"""JSON Schemas for every document the CLI prints to stdout.

Each subcommand emits exactly one JSON document; these schemas pin the
field layout so downstream tooling can rely on it.
"""

_NUMBER = {"type": "number"}
_INT = {"type": "integer"}
_STRING = {"type": "string"}
_BOOL = {"type": "boolean"}
_NUMBER_ARRAY = {"type": "array", "items": _NUMBER}
_INT_ARRAY = {"type": "array", "items": _INT}
_STRING_ARRAY = {"type": "array", "items": _STRING}

TEST_REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "tailtest two-sample report",
    "type": "object",
    "required": ["statistic", "normalized", "p_value", "reject", "method", "level",
                 "k_exceedances", "num_cells", "risk", "scheme", "margins",
                 "zero_adjusted", "cells", "sample_sizes", "dim", "rank_ties",
                 "seed", "bootstrap", "warnings", "version"],
    "properties": {
        "statistic": _NUMBER,
        "normalized": _NUMBER,
        "p_value": {"type": "number", "minimum": 0, "maximum": 1},
        "reject": _BOOL,
        "method": {"enum": ["chisq", "bootstrap"]},
        "level": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "k_exceedances": {"type": "integer", "minimum": 1},
        "num_cells": {"type": "integer", "minimum": 2},
        "risk": {"enum": ["max", "min", "euclidean", "sum"]},
        "scheme": {"enum": ["max-orthant", "min-orthant", "angular"]},
        "margins": {"enum": ["known", "empirical"]},
        "zero_adjusted": _BOOL,
        "cells": {
            "type": "object",
            "required": ["labels", "x_counts", "y_counts", "x_probs", "y_probs",
                         "x_threshold", "y_threshold"],
            "properties": {
                "labels": _STRING_ARRAY,
                "x_counts": _INT_ARRAY,
                "y_counts": _INT_ARRAY,
                "x_probs": _NUMBER_ARRAY,
                "y_probs": _NUMBER_ARRAY,
                "x_threshold": _NUMBER,
                "y_threshold": _NUMBER,
            },
        },
        "sample_sizes": {
            "type": "object",
            "required": ["x", "y"],
            "properties": {"x": _INT, "y": _INT},
        },
        "dim": {"type": "integer", "minimum": 2},
        "rank_ties": {
            "type": "object",
            "required": ["x", "y", "policy"],
            "properties": {"x": _INT, "y": _INT, "policy": _STRING},
        },
        "seed": _INT,
        "bootstrap": {
            "oneOf": [
                {"type": "null"},
                {
                    "type": "object",
                    "required": ["replicates", "source", "exceedance_rule", "k_half"],
                    "properties": {
                        "replicates": {"type": "integer", "minimum": 1},
                        "source": {"enum": ["x", "symmetric"]},
                        "exceedance_rule": {"enum": ["proportional"]},
                        "k_half": {"type": "integer", "minimum": 1},
                    },
                },
            ]
        },
        "warnings": _STRING_ARRAY,
        "version": _STRING,
    },
}

_MODEL_SCHEMA = {
    "type": "object",
    "required": ["family", "theta", "psi"],
    "properties": {
        "family": {"enum": ["logistic", "outer_power_clayton", "asymmetric_logistic"]},
        "theta": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        "psi": {"oneOf": [{"type": "null"},
                          {"type": "array", "items": _NUMBER, "minItems": 2, "maxItems": 2}]},
    },
}

SIMULATE_MANIFEST_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "tailtest simulate manifest",
    "type": "object",
    "required": ["command", "model", "n", "seed", "outputs", "version"],
    "properties": {
        "command": {"const": "simulate"},
        "model": _MODEL_SCHEMA,
        "n": {"type": "integer", "minimum": 1},
        "seed": _INT,
        "outputs": {"type": "object", "required": ["csv", "manifest"]},
        "version": _STRING,
    },
}

STANDARDIZE_MANIFEST_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "tailtest standardize manifest",
    "type": "object",
    "required": ["command", "input", "margins", "known_cdf", "n", "dim",
                 "rank_ties", "outputs", "version"],
    "properties": {
        "command": {"const": "standardize"},
        "input": _STRING,
        "margins": {"enum": ["known", "empirical"]},
        "known_cdf": {"oneOf": [{"type": "null"}, _STRING]},
        "n": _INT,
        "dim": _INT,
        "rank_ties": _INT,
        "outputs": {"type": "object", "required": ["csv", "manifest"]},
        "version": _STRING,
    },
}

POWER_MANIFEST_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "tailtest power manifest",
    "type": "object",
    "required": ["command", "plan", "seed", "version", "outputs"],
    "properties": {
        "command": {"enum": ["power", "ksets"]},
        "plan": {"type": "object"},
        "seed": _INT,
        "version": _STRING,
        "outputs": {"type": "object", "required": ["csv", "manifest"]},
    },
}

NULLS_MANIFEST_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "tailtest nulls manifest",
    "type": "object",
    "required": ["command", "model", "n", "k_exceedances", "num_cells", "seed",
                 "version", "ks", "outputs"],
    "properties": {
        "command": {"const": "nulls"},
        "model": _MODEL_SCHEMA,
        "n": _INT,
        "k_exceedances": _INT,
        "num_cells": _INT,
        "seed": _INT,
        "version": _STRING,
        "ks": {
            "type": "object",
            "required": ["known_bootstrap_vs_fresh", "empirical_bootstrap_vs_fresh",
                         "known_fresh_vs_chisq"],
        },
        "outputs": {"type": "object", "required": ["csv", "manifest"]},
    },
}

RAINFALL_SUMMARY_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "tailtest rainfall summary",
    "type": "object",
    "required": ["command", "input", "station", "seasons", "pairs", "outputs", "version"],
    "properties": {
        "command": {"const": "rainfall"},
        "input": _STRING,
        "station": _STRING,
        "seasons": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["days", "error"],
                "properties": {"days": {"oneOf": [{"type": "null"}, _INT]},
                               "error": {"oneOf": [{"type": "null"}, _STRING]}},
            },
        },
        "pairs": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["error"],
                "properties": {
                    "error": {"oneOf": [{"type": "null"}, _STRING]},
                    "p_value": _NUMBER,
                    "reject": _BOOL,
                    "statistic": _NUMBER,
                    "k_used": _INT,
                },
            },
        },
        "outputs": {"type": "object"},
        "version": _STRING,
    },
}

SCHEMAS = {
    "test": TEST_REPORT_SCHEMA,
    "simulate": SIMULATE_MANIFEST_SCHEMA,
    "standardize": STANDARDIZE_MANIFEST_SCHEMA,
    "power": POWER_MANIFEST_SCHEMA,
    "nulls": NULLS_MANIFEST_SCHEMA,
    "rainfall": RAINFALL_SUMMARY_SCHEMA,
}


def get_schema(command: str) -> dict:
    return SCHEMAS[command]

(** Umbrella module: one [open Disco] (or [Disco.Mediator....]) reaches
    the whole public API. Each alias re-exports the documented module of
    its subsystem library; see the per-module interfaces for the
    paper-section cross-references. *)

module Value = Disco_value.Value
module Lexer = Disco_lex.Lexer
module Schema = Disco_relation.Schema
module Table = Disco_relation.Table
module Database = Disco_relation.Database
module Sql = Disco_relation.Sql
module Clock = Disco_source.Clock
module Scheduler = Disco_source.Scheduler
module Schedule = Disco_source.Schedule
module Source = Disco_source.Source
module Datagen = Disco_source.Datagen
module Text_index = Disco_source.Text_index
module Shard = Disco_shard.Shard
module Otype = Disco_odl.Otype
module Typemap = Disco_odl.Typemap
module Registry = Disco_odl.Registry
module Odl = Disco_odl.Odl_parser
module Ast = Disco_oql.Ast
module Oql = Disco_oql.Parser
module Eval = Disco_oql.Eval
module Typecheck = Disco_oql.Typecheck
module Expr = Disco_algebra.Expr
module Compile = Disco_algebra.Compile
module Decompile = Disco_algebra.Decompile
module Rules = Disco_algebra.Rules
module Grammar = Disco_wrapper.Grammar
module Translate = Disco_wrapper.Translate
module Wrapper = Disco_wrapper.Wrapper
module Cost_model = Disco_cost.Cost_model
module Trace = Disco_obs.Trace
module Metrics = Disco_obs.Metrics
module Lru = Disco_cache.Lru
module Answer_cache = Disco_cache.Answer_cache
module Resubmission = Disco_cache.Resubmission
module Plan = Disco_physical.Plan
module Check = Disco_check.Check
module Optimizer = Disco_optimizer.Optimizer
module Runtime = Disco_runtime.Runtime
module Catalog = Disco_catalog.Catalog
module Mediator = Disco_core.Mediator
module Pipeline = Disco_core.Pipeline
module Server = Disco_serve.Server
module Loadgen = Disco_serve.Loadgen
module Expand = Disco_core.Expand
module Maintenance = Disco_core.Maintenance
module Composition = Disco_core.Composition

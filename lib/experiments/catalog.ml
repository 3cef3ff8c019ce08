type entry = {
  id : string;
  doc : string;
  render : Harness.t -> string;
}

let all =
  [
    { id = "table-1"; doc = "base-table q-errors"; render = Exp_table1.render };
    {
      id = "figure-3";
      doc = "join estimate errors by join count";
      render = Exp_fig3.render;
    };
    { id = "figure-4"; doc = "JOB vs TPC-H estimates"; render = Exp_fig4.render };
    {
      id = "figure-5";
      doc = "default vs true distinct counts";
      render = Exp_fig5.render;
    };
    {
      id = "table-sec4.1";
      doc = "slowdowns from injected estimates";
      render = Exp_sec41.render;
    };
    {
      id = "figure-6";
      doc = "engine robustness variants";
      render = Exp_fig6.render;
    };
    {
      id = "figure-7";
      doc = "PK vs PK+FK slowdowns";
      render = Exp_fig7.render;
    };
    {
      id = "figure-8";
      doc = "cost model vs runtime";
      render = Exp_fig8.render;
    };
    {
      id = "figure-9";
      doc = "random plan cost distributions";
      render = Exp_fig9.render;
    };
    {
      id = "table-2";
      doc = "restricted tree shapes";
      render = Exp_table2.render;
    };
    { id = "table-3"; doc = "DP vs heuristics"; render = Exp_table3.render };
    {
      id = "ablations";
      doc = "design-choice ablations (extensions)";
      render = Exp_ablation.render;
    };
    {
      id = "extensions";
      doc = "future-work implementations: join sampling, the q-error \
             plan-quality bound (runtime feedback: reopt)";
      render = Exp_extensions.render;
    };
    {
      id = "reopt";
      doc = "mid-query re-optimization: cardinality feedback off/on, \
             re-plan counts, threshold sweep";
      render = Exp_reopt.render;
    };
  ]

let registry =
  Core.Registry.make ~kind:"experiment"
    (List.map
       (fun e -> { Core.Registry.name = e.id; doc = e.doc; value = e })
       all)

let ids = Core.Registry.names registry

let find id = Core.Registry.find registry id

let find_exn id = Core.Registry.find_exn registry id

let json_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let json_labels labels =
  "{"
  ^ String.concat ","
      (List.map
         (fun (k, v) -> json_string k ^ ":" ^ json_string v)
         labels)
  ^ "}"

(* %.17g round-trips any float; %g keeps dumps readable.  Simulated
   times and latencies do not need the full 17 digits. *)
let fl x = Printf.sprintf "%g" x

let metrics_jsonl oc m =
  List.iter
    (fun (s : Metrics.sample) ->
      let base =
        Printf.sprintf "{\"metric\":%s,\"labels\":%s" (json_string s.name)
          (json_labels s.labels)
      in
      (match s.value with
      | Metrics.Counter v ->
          Printf.fprintf oc "%s,\"type\":\"counter\",\"value\":%d}\n" base v
      | Metrics.Gauge v ->
          Printf.fprintf oc "%s,\"type\":\"gauge\",\"value\":%s}\n" base
            (fl v)
      | Metrics.Histogram h ->
          Printf.fprintf oc
            "%s,\"type\":\"histogram\",\"n\":%d,\"sum\":%s,\"mean\":%s,\
             \"min\":%s,\"max\":%s,\"p50\":%s,\"p90\":%s,\"p99\":%s}\n"
            base h.n (fl h.total) (fl h.avg) (fl h.min_v) (fl h.max_v)
            (fl h.p50) (fl h.p90) (fl h.p99)))
    (Metrics.snapshot m)

let csv_field s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\""
    ^ String.concat "\"\"" (String.split_on_char '"' s)
    ^ "\""
  else s

let csv_labels labels =
  csv_field
    (String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) labels))

let metrics_csv oc m =
  output_string oc "metric,labels,type,count,value,sum,min,max,p50,p90,p99\n";
  List.iter
    (fun (s : Metrics.sample) ->
      let name = csv_field s.name and labels = csv_labels s.labels in
      match s.value with
      | Metrics.Counter v ->
          Printf.fprintf oc "%s,%s,counter,%d,%d,,,,,,\n" name labels v v
      | Metrics.Gauge v ->
          Printf.fprintf oc "%s,%s,gauge,,%s,,,,,,\n" name labels (fl v)
      | Metrics.Histogram h ->
          Printf.fprintf oc "%s,%s,histogram,%d,%s,%s,%s,%s,%s,%s,%s\n" name
            labels h.n (fl h.avg) (fl h.total) (fl h.min_v) (fl h.max_v)
            (fl h.p50) (fl h.p90) (fl h.p99))
    (Metrics.snapshot m)

let trace_jsonl oc tr =
  Trace.iter tr (fun (e : Trace.event) ->
      Printf.fprintf oc
        "{\"seq\":%d,\"t\":%s,\"kind\":%s,\"node\":%d,\"peer\":%d,\
         \"msg\":%d,\"span\":%d,\"label\":%s}\n"
        e.seq (fl e.time)
        (json_string (Trace.kind_name e.kind))
        e.node e.peer e.msg_id e.span (json_string e.label))

let trace_csv oc tr =
  output_string oc "seq,time,kind,node,peer,msg_id,span,label\n";
  Trace.iter tr (fun (e : Trace.event) ->
      Printf.fprintf oc "%d,%s,%s,%d,%d,%d,%d,%s\n" e.seq (fl e.time)
        (Trace.kind_name e.kind) e.node e.peer e.msg_id e.span
        (csv_field e.label))

(* Prometheus text exposition format, version 0.0.4.  Counters get the
   conventional [_total] suffix; exact-sample histograms are closest to
   Prometheus summaries (pre-computed quantiles), so that is how they
   are exposed. *)
let prom_name s =
  String.map
    (function
      | ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':') as c -> c
      | _ -> '_')
    s

let prom_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let prom_labels ?extra labels =
  let labels =
    match extra with None -> labels | Some kv -> labels @ [ kv ]
  in
  if labels = [] then ""
  else
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) ->
             Printf.sprintf "%s=\"%s\"" (prom_name k) (prom_escape v))
           labels)
    ^ "}"

let metrics_prometheus oc m =
  let last_header = ref "" in
  List.iter
    (fun (s : Metrics.sample) ->
      let name = prom_name s.name in
      let header typ suffix =
        (* One HELP/TYPE block per family; the snapshot is sorted by
           name, so cells of a family are adjacent. *)
        if !last_header <> name then begin
          last_header := name;
          if s.help <> "" then
            Printf.fprintf oc "# HELP %s%s %s\n" name suffix
              (prom_escape s.help);
          Printf.fprintf oc "# TYPE %s%s %s\n" name suffix typ
        end
      in
      match s.value with
      | Metrics.Counter v ->
          header "counter" "_total";
          Printf.fprintf oc "%s_total%s %d\n" name (prom_labels s.labels) v
      | Metrics.Gauge v ->
          header "gauge" "";
          Printf.fprintf oc "%s%s %s\n" name (prom_labels s.labels) (fl v)
      | Metrics.Histogram h ->
          header "summary" "";
          List.iter
            (fun (q, v) ->
              Printf.fprintf oc "%s%s %s\n" name
                (prom_labels ~extra:("quantile", q) s.labels)
                (fl v))
            [ ("0.5", h.p50); ("0.9", h.p90); ("0.99", h.p99) ];
          Printf.fprintf oc "%s_sum%s %s\n" name (prom_labels s.labels)
            (fl h.total);
          Printf.fprintf oc "%s_count%s %d\n" name (prom_labels s.labels)
            h.n)
    (Metrics.snapshot m)

let with_file path f =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> f oc)

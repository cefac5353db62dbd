(* Virtual-time tracing: spans and counters recorded against the
   simulator's nanosecond clock, exported in the Chrome trace-event JSON
   format (load in chrome://tracing or https://ui.perfetto.dev).

   The tracer is zero-cost when disabled: [null] is a shared sentinel
   whose [enabled] flag is false, every recording function checks that
   flag first, and callers guard any event-argument computation behind
   [enabled t].  Nothing here ever advances simulated time, so a run
   with tracing on is bit-identical (in virtual time and in results) to
   the same run with tracing off. *)

open Quill_common

type event =
  | Span of { pid : int; tid : int; cat : string; name : string;
              ts : int; dur : int }
  | Counter of { pid : int; tid : int; name : string; series : string;
                 ts : int; value : int }
  | Process_name of { pid : int; name : string }

type t = {
  enabled : bool;
  events : event Vec.t;
  mutable pid : int;    (* current logical process (one per traced run) *)
}

let null = { enabled = false; events = Vec.create (); pid = 0 }
let create () = { enabled = true; events = Vec.create (); pid = 0 }
let enabled t = t.enabled
let num_events t = Vec.length t.events

(* Start a new logical process; subsequent events belong to it.  Used by
   the harness so several runs can share one trace file and still render
   as separate swim-lane groups. *)
let begin_process t name =
  if t.enabled then begin
    t.pid <- t.pid + 1;
    Vec.push t.events (Process_name { pid = t.pid; name })
  end

let span t ~tid ?(cat = "phase") ~name ~ts ~dur () =
  if t.enabled then
    Vec.push t.events (Span { pid = t.pid; tid; cat; name; ts; dur })

let counter t ~tid ~name ~series ~ts ~value =
  if t.enabled then
    Vec.push t.events (Counter { pid = t.pid; tid; name; series; ts; value })

(* ------------------------------------------------------------------ *)
(* Chrome trace-event JSON                                             *)
(* ------------------------------------------------------------------ *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
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
  Buffer.contents buf

(* Chrome expects [ts]/[dur] in microseconds; our virtual clock is in
   nanoseconds, so emit fractional microseconds. *)
let us ns = float_of_int ns /. 1e3

let add_event buf = function
  | Span { pid; tid; cat; name; ts; dur } ->
      Printf.bprintf buf
        {|{"name":"%s","cat":"%s","ph":"X","pid":%d,"tid":%d,"ts":%.3f,"dur":%.3f}|}
        (escape name) (escape cat) pid tid (us ts) (us dur)
  | Counter { pid; tid; name; series; ts; value } ->
      Printf.bprintf buf
        {|{"name":"%s","cat":"counter","ph":"C","pid":%d,"tid":%d,"ts":%.3f,"args":{"%s":%d}}|}
        (escape name) pid tid (us ts) (escape series) value
  | Process_name { pid; name } ->
      Printf.bprintf buf
        {|{"name":"process_name","ph":"M","pid":%d,"args":{"name":"%s"}}|}
        pid (escape name)

let to_chrome_json t =
  let buf = Buffer.create (4096 + (96 * Vec.length t.events)) in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  Vec.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_char buf '\n';
      add_event buf e)
    t.events;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

let write_file t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_chrome_json t))

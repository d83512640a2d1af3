package profile

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"m2cc/internal/sched"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Render draws the text blame report: the summary numbers, the
// critical path, and the top maxRows blamed events.
func (p *Profile) Render(maxRows int) string {
	var sb strings.Builder
	if p.Makespan == 0 || p.TotalWork == 0 {
		sb.WriteString("critical-path profile: no activity recorded\n")
		return sb.String()
	}
	fmt.Fprintf(&sb, "critical-path profile (%s, %d workers)\n", p.Strategy, p.Workers)
	fmt.Fprintf(&sb, "  makespan %.3f ms   total work %.3f ms   total blocked %.3f ms (%.3f ms of it queue delay)\n",
		ms(p.Makespan), ms(p.TotalWork), ms(p.TotalBlocked), ms(p.TotalQueue))
	fmt.Fprintf(&sb, "  critical path: %.3f ms = %.3f work + %.3f blocked + %.3f queue\n",
		ms(p.CritLen), ms(p.CritWork), ms(p.CritBlocked), ms(p.CritQueue))
	fmt.Fprintf(&sb, "  serial fraction %.1f%%   speedup bound at P→∞: %.2fx\n",
		100*p.SerialFraction, p.SpeedupBound)
	if c := p.Sched; c.Dispatches > 0 {
		fmt.Fprintf(&sb, "  dispatches: %d; %d direct slot handoffs\n", c.Dispatches, c.Handoffs)
	}

	sb.WriteString("\ncritical path (earliest first):\n")
	for _, seg := range p.Path {
		who := seg.Label
		if who == "" && seg.Task != 0 {
			who = fmt.Sprintf("task %d", seg.Task)
		}
		line := fmt.Sprintf("  %9.3f..%9.3f ms  %-8s %s", ms(seg.Start), ms(seg.End), seg.Kind, who)
		if seg.Event != 0 && seg.Kind != SegWork {
			line += fmt.Sprintf(" (event %d)", seg.Event)
		}
		sb.WriteString(line + "\n")
	}

	if len(p.Events) > 0 {
		sb.WriteString("\nblame report (blocked time by event):\n")
		fmt.Fprintf(&sb, "  %-6s  %-24s  %8s  %8s  %7s  %s\n",
			"event", "producer", "blocked", "queue", "waiters", "")
		rows := p.Events
		if maxRows > 0 && len(rows) > maxRows {
			rows = rows[:maxRows]
		}
		for _, eb := range rows {
			prod := eb.ProducerLabel
			switch {
			case eb.External:
				prod = "(external)"
			case eb.Forced:
				prod = "(force-fired)"
			case prod == "":
				prod = "(driver)"
			}
			mark := ""
			if eb.OnCritPath {
				mark = "← critical path"
			}
			fmt.Fprintf(&sb, "  %-6d  %-24s  %6.3fms  %6.3fms  %7d  %s\n",
				eb.Event, prod, ms(eb.Blocked), ms(eb.Queue), eb.Waiters, mark)
		}
		if maxRows > 0 && len(p.Events) > maxRows {
			fmt.Fprintf(&sb, "  … %d more events\n", len(p.Events)-maxRows)
		}
	}

	if len(p.ByTask) > 0 {
		sb.WriteString("\ntop tasks by work:\n")
		n := len(p.ByTask)
		if maxRows > 0 && n > maxRows {
			n = maxRows
		}
		for _, tc := range p.ByTask[:n] {
			fmt.Fprintf(&sb, "  %-28s  work %8.3fms  blocked %8.3fms  on-path %8.3fms\n",
				tc.Label, ms(tc.Work), ms(tc.Blocked), ms(tc.CritWork))
		}
	}
	return sb.String()
}

// jsonProfile is the JSON view of a Profile, durations in float
// milliseconds for readability.
type jsonProfile struct {
	WallMs         float64         `json:"wall_ms"`
	MakespanMs     float64         `json:"makespan_ms"`
	Workers        int             `json:"workers"`
	Strategy       string          `json:"strategy"`
	Tasks          int             `json:"tasks"`
	TotalWorkMs    float64         `json:"total_work_ms"`
	TotalBlockedMs float64         `json:"total_blocked_ms"`
	TotalQueueMs   float64         `json:"total_queue_ms"`
	CritLenMs      float64         `json:"crit_len_ms"`
	CritWorkMs     float64         `json:"crit_work_ms"`
	CritBlockedMs  float64         `json:"crit_blocked_ms"`
	CritQueueMs    float64         `json:"crit_queue_ms"`
	SerialFraction float64         `json:"serial_fraction"`
	SpeedupBound   float64         `json:"speedup_bound"`
	Sched          *sched.Counters `json:"sched,omitempty"`
	Path           []jsonSegment   `json:"critical_path"`
	Events         []jsonBlame     `json:"events"`
	Tasks_         []jsonTask      `json:"by_task"`
}

type jsonSegment struct {
	Kind    string  `json:"kind"`
	Task    int     `json:"task,omitempty"`
	Label   string  `json:"label,omitempty"`
	Event   int     `json:"event,omitempty"`
	StartMs float64 `json:"start_ms"`
	EndMs   float64 `json:"end_ms"`
}

type jsonBlame struct {
	Event      int     `json:"event"`
	Producer   int     `json:"producer,omitempty"`
	Label      string  `json:"producer_label,omitempty"`
	Forced     bool    `json:"forced,omitempty"`
	External   bool    `json:"external,omitempty"`
	Waiters    int     `json:"waiters"`
	BlockedMs  float64 `json:"blocked_ms"`
	QueueMs    float64 `json:"queue_ms"`
	OnCritPath bool    `json:"on_critical_path,omitempty"`
}

type jsonTask struct {
	Task       int     `json:"task"`
	Kind       string  `json:"kind"`
	Label      string  `json:"label"`
	WorkMs     float64 `json:"work_ms"`
	BlockedMs  float64 `json:"blocked_ms"`
	CritWorkMs float64 `json:"crit_work_ms"`
}

// WriteJSON writes the profile as indented JSON.
func (p *Profile) WriteJSON(w io.Writer) error {
	jp := jsonProfile{
		WallMs: ms(p.Wall), MakespanMs: ms(p.Makespan),
		Workers: p.Workers, Strategy: p.Strategy, Tasks: p.Tasks,
		TotalWorkMs: ms(p.TotalWork), TotalBlockedMs: ms(p.TotalBlocked), TotalQueueMs: ms(p.TotalQueue),
		CritLenMs: ms(p.CritLen), CritWorkMs: ms(p.CritWork),
		CritBlockedMs: ms(p.CritBlocked), CritQueueMs: ms(p.CritQueue),
		SerialFraction: p.SerialFraction, SpeedupBound: p.SpeedupBound,
	}
	if p.Sched != (sched.Counters{}) {
		sc := p.Sched
		jp.Sched = &sc
	}
	for _, seg := range p.Path {
		jp.Path = append(jp.Path, jsonSegment{
			Kind: seg.Kind.String(), Task: seg.Task, Label: seg.Label, Event: seg.Event,
			StartMs: ms(seg.Start), EndMs: ms(seg.End),
		})
	}
	for _, eb := range p.Events {
		jp.Events = append(jp.Events, jsonBlame{
			Event: eb.Event, Producer: eb.Producer, Label: eb.ProducerLabel,
			Forced: eb.Forced, External: eb.External, Waiters: eb.Waiters,
			BlockedMs: ms(eb.Blocked), QueueMs: ms(eb.Queue), OnCritPath: eb.OnCritPath,
		})
	}
	for _, tc := range p.ByTask {
		jp.Tasks_ = append(jp.Tasks_, jsonTask{
			Task: tc.Task, Kind: tc.Kind.String(), Label: tc.Label,
			WorkMs: ms(tc.Work), BlockedMs: ms(tc.Blocked), CritWorkMs: ms(tc.CritWork),
		})
	}
	data, err := json.MarshalIndent(jp, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

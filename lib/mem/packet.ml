type op = Read | Write

let op_name = function Read -> "read" | Write -> "write"

let helper x = x + 1
let direct x = helper (2 * x)

module Inner = struct
  let nested = 3
end

let orphan = 4
let hook = 5
let stale_hook = 6
